// Fixture: a bench instance that still owns the old clock type.
namespace baton {
namespace bench {

struct Instance {
  std::unique_ptr<sim::EventQueue> queue;
};

}  // namespace bench
}  // namespace baton
