// Fixture: ordered containers pass, and an exception survives behind an
// allow() pragma with a reason.
#include <map>
#include <unordered_set>  // lint: allow(unordered-iteration) -- fixture: a reasoned exception passes

namespace baton {

int SumValues() {
  std::map<int, int> dir;
  dir[1] = 2;
  int sum = 0;
  for (const auto& kv : dir) sum += kv.second;
  return sum;
}

}  // namespace baton
