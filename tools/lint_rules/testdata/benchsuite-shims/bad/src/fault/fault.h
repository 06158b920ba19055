// Fixture: an injector that brings back an operation clock.
namespace baton {
namespace fault {

class Plan : public net::FaultInjector {
 public:
  void OnOpBegin() override { ++op_clock_; }

 private:
  uint64_t op_clock_ = 0;
};

}  // namespace fault
}  // namespace baton
