// Fixture: the empty virtual's declaration is allowed.
namespace baton {
namespace net {

class FaultInjector {
 public:
  virtual ~FaultInjector() = default;
  virtual void OnOpBegin() {}
};

}  // namespace net
}  // namespace baton
