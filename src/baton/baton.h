// Umbrella header: the BATON library public API.
//
//   #include "baton/baton.h"
//
//   baton::net::Network net;
//   baton::BatonNetwork overlay(baton::BatonConfig{}, &net, /*seed=*/42);
//   auto root = overlay.Bootstrap();
//   auto peer = overlay.Join(root).value();
//   overlay.Insert(peer, 123456);
//   auto hit = overlay.ExactSearch(root, 123456).value();
//   auto range = overlay.RangeSearch(root, 100000, 200000).value();
#ifndef BATON_BATON_BATON_H_
#define BATON_BATON_BATON_H_

#include "baton/baton_network.h"
#include "baton/node.h"
#include "baton/position.h"
#include "net/message.h"
#include "net/network.h"
#include "util/key_bag.h"
#include "util/keys.h"
#include "util/status.h"

#endif  // BATON_BATON_BATON_H_
