// Fixture: an adapter that holds only backend facts; the base owns the
// network, the invalidation and the checked downcast.
namespace baton {
namespace overlay {

class FifthOverlay : public Overlay {
 protected:
  void DoLeave(PeerId leaver, OpStats* st) override {
    st->status = tree_->Leave(leaver);  // no InvalidatePeer( here
  }

 private:
  std::unique_ptr<FifthNetwork> tree_{
      std::make_unique<FifthNetwork>(network())};
  const net::Network* peers_ = network();
};

inline FifthNetwork& FifthBackend(Overlay& ov) {
  return As<FifthOverlay>(ov).fifth();
}

}  // namespace overlay
}  // namespace baton
