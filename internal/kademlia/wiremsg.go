package kademlia

import "github.com/dht-sampling/randompeer/internal/wire"

// Wire registration of every Kademlia-only RPC payload
// (internal/overlay registers the shared ring-pointer requests, ping
// and ack): the same value/pointer shapes the handlers and callers use
// in-process travel across process boundaries on the wire transport.
// Adding an RPC type without registering it here fails loudly at the
// first cross-process call (wire: message type not registered).
func init() {
	wire.RegisterValue[findNodeReq]("kademlia.findNodeReq")
	wire.RegisterPointer[findNodeResp]("kademlia.findNodeResp")
	wire.RegisterValue[spliceReq]("kademlia.spliceReq")
}
