// Fixture: an adapter that copies the base's decisions back -- its own
// network, its own cache invalidation and its own downcast.
namespace baton {
namespace overlay {

class FifthOverlay : public Overlay {
 protected:
  void DoLeave(PeerId leaver, OpStats* st) override {
    st->status = tree_->Leave(leaver);
    if (cache_ != nullptr) cache_->InvalidatePeer(leaver);
  }

 private:
  net::Network net_;
  std::unique_ptr<FifthNetwork> tree_;
};

FifthNetwork& FifthBackend(Overlay& ov) {
  return dynamic_cast<FifthOverlay&>(ov).fifth();
}

}  // namespace overlay
}  // namespace baton
