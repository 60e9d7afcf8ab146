package chord

import "github.com/dht-sampling/randompeer/internal/wire"

// Wire registration of every Chord-only RPC payload (internal/overlay
// registers the shared ring-pointer requests, ping and ack): the same
// value/pointer shapes the handlers and callers use in-process travel
// across process boundaries on the wire transport. Adding an RPC type
// without registering it here fails loudly at the first cross-process
// call (wire: message type not registered).
func init() {
	wire.RegisterValue[nextHopReq]("chord.nextHopReq")
	wire.RegisterPointer[nextHopResp]("chord.nextHopResp")
	wire.RegisterValue[routeReq]("chord.routeReq")
	wire.RegisterValue[routeResp]("chord.routeResp")
	wire.RegisterValue[succListReq]("chord.succListReq")
	wire.RegisterValue[succListResp]("chord.succListResp")
	wire.RegisterValue[notifyReq]("chord.notifyReq")
	wire.RegisterValue[putReq]("chord.putReq")
	wire.RegisterValue[getReq]("chord.getReq")
	wire.RegisterValue[getResp]("chord.getResp")
	wire.RegisterValue[rangeReq]("chord.rangeReq")
	wire.RegisterValue[rangeResp]("chord.rangeResp")
}
