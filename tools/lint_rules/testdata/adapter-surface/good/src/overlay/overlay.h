// Fixture: the base class is where the shared decisions live.
namespace baton {
namespace overlay {

class Overlay {
 private:
  net::Network net_;
};

template <class Adapter>
Adapter& As(Overlay& ov) {
  return *dynamic_cast<Adapter*>(&ov);
}

}  // namespace overlay
}  // namespace baton
