#include "sim/permissions.h"

namespace leakdet::sim {

std::string PermissionSet::ToString() const {
  std::string out;
  auto append = [&out](const char* tag) {
    if (!out.empty()) out += '+';
    out += tag;
  };
  if (Has(kInternet)) append("I");
  if (Has(kLocation)) append("L");
  if (Has(kReadPhoneState)) append("P");
  if (Has(kReadContacts)) append("C");
  if (Has(kOther)) append("O");
  if (out.empty()) out.push_back('-');
  return out;
}

}  // namespace leakdet::sim
