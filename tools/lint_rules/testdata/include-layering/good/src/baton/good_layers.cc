// Fixture: protocol code depending only on its allowed lower layers.
#include "baton/node.h"
#include "net/message.h"
#include "util/check.h"

namespace baton {

int Layered() { return 1; }

}  // namespace baton
