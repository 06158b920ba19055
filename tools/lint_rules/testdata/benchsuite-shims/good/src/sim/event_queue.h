// Fixture: the alias itself is the one place the old name may appear.
namespace baton {
namespace sim {

using EventQueue = Clock;

}  // namespace sim
}  // namespace baton
