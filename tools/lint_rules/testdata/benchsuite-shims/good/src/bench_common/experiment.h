// Fixture: new code names sim::Clock.
namespace baton {
namespace bench {

struct Instance {
  std::unique_ptr<sim::Clock> clock;
};

}  // namespace bench
}  // namespace baton
