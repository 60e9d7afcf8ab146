package chord

import (
	"errors"
	"fmt"

	"github.com/dht-sampling/randompeer/internal/overlay"
	"github.com/dht-sampling/randompeer/internal/ring"
	"github.com/dht-sampling/randompeer/internal/simnet"
)

// Storage RPCs. These touch only the destination node's state and make
// no calls: replication and fallback are driven by the initiator.

// putReq stores a key/value pair at the destination.
type putReq struct {
	Key   ring.Point
	Value []byte
}

// getReq fetches a key from the destination.
type getReq struct {
	Key ring.Point
}

// getResp carries a fetched value.
type getResp struct {
	Value []byte
	Found bool
}

// rangeReq asks the destination for all items with keys in the
// clockwise interval (From, To] — the key transfer on node join.
type rangeReq struct {
	From ring.Point
	To   ring.Point
}

// rangeResp carries transferred items.
type rangeResp struct {
	Items []Item
}

// Item is one stored key/value pair.
type Item struct {
	Key   ring.Point
	Value []byte
}

// handleStorage dispatches the storage RPCs for the node in slot s; it
// is called from handleRPC. Stored items live in the network-level side
// map keyed by slot: most nodes store nothing, so the flat arena
// carries no per-slot store field at all.
func (n *Network) handleStorage(s uint32, msg simnet.Message) (simnet.Message, bool) {
	switch m := msg.(type) {
	case putReq:
		val := make([]byte, len(m.Value))
		copy(val, m.Value)
		n.storeMu.Lock()
		st := n.stores[s]
		if st == nil {
			st = make(map[ring.Point][]byte)
			n.stores[s] = st
		}
		st[m.Key] = val
		n.storeMu.Unlock()
		return overlay.Ack{}, true
	case getReq:
		n.storeMu.RLock()
		val, ok := n.stores[s][m.Key]
		n.storeMu.RUnlock()
		if !ok {
			return getResp{}, true
		}
		out := make([]byte, len(val))
		copy(out, val)
		return getResp{Value: out, Found: true}, true
	case rangeReq:
		iv := ring.NewInterval(m.From, m.To)
		n.storeMu.RLock()
		var items []Item
		for k, v := range n.stores[s] {
			if iv.Contains(k) {
				val := make([]byte, len(v))
				copy(val, v)
				items = append(items, Item{Key: k, Value: val})
			}
		}
		n.storeMu.RUnlock()
		return rangeResp{Items: items}, true
	default:
		return nil, false
	}
}

// dropStore discards slot s's stored items (slot recycled or reset).
func (n *Network) dropStore(s uint32) {
	n.storeMu.Lock()
	delete(n.stores, s)
	n.storeMu.Unlock()
}

// Put stores value under key: the initiator resolves the owner with a
// lookup, writes to it, and replicates to replicas-1 of the owner's
// successors (client-driven replication, so crash of up to replicas-1
// consecutive nodes loses no data).
func (n *Network) Put(from, key ring.Point, value []byte, replicas int) error {
	if replicas < 1 {
		return fmt.Errorf("chord: replicas must be >= 1, got %d", replicas)
	}
	owner, err := n.Lookup(from, key)
	if err != nil {
		return fmt.Errorf("chord: put %v: %w", key, err)
	}
	if _, err := n.Call(from, owner, putReq{Key: key, Value: value}); err != nil {
		return fmt.Errorf("chord: put %v at owner %v: %w", key, owner, err)
	}
	if replicas == 1 {
		return nil
	}
	raw, err := n.Call(from, owner, succListReq{})
	if err != nil {
		return fmt.Errorf("chord: put %v: fetching replica set: %w", key, err)
	}
	stored := 1
	for _, succ := range raw.(succListResp).List {
		if stored >= replicas {
			break
		}
		if succ == owner {
			continue
		}
		if _, err := n.Call(from, succ, putReq{Key: key, Value: value}); err != nil {
			continue // dead replica target; the rest still count
		}
		stored++
	}
	if stored < replicas {
		return fmt.Errorf("chord: put %v: stored %d of %d replicas", key, stored, replicas)
	}
	return nil
}

// Get fetches the value under key. If the owner is unreachable or lost
// the key (it may have just joined and not pulled its range yet), the
// initiator falls back to the owner's successors, where replicas live.
func (n *Network) Get(from, key ring.Point) ([]byte, error) {
	owner, err := n.Lookup(from, key)
	if err != nil {
		return nil, fmt.Errorf("chord: get %v: %w", key, err)
	}
	candidates := []ring.Point{owner}
	if raw, err := n.Call(from, owner, succListReq{}); err == nil {
		candidates = append(candidates, raw.(succListResp).List...)
	} else if nd, err := n.Node(from); err == nil {
		// Owner unreachable: consult our own successor list overlap.
		candidates = append(candidates, nd.SuccessorList()...)
	}
	for _, c := range candidates {
		raw, err := n.Call(from, c, getReq{Key: key})
		if err != nil {
			continue
		}
		if resp := raw.(getResp); resp.Found {
			return resp.Value, nil
		}
	}
	return nil, fmt.Errorf("chord: get %v: %w", key, ErrKeyNotFound)
}

// ErrKeyNotFound is returned by Get when no reachable replica holds the
// key.
var ErrKeyNotFound = errors.New("chord: key not found")

// PullKeys makes node id fetch the key range it now owns from its
// successor — the data-transfer step of the Chord join protocol. It
// returns the number of items transferred.
func (n *Network) PullKeys(id ring.Point) (int, error) {
	nd, err := n.Node(id)
	if err != nil {
		return 0, err
	}
	succ := nd.Successor()
	if succ == id {
		return 0, nil
	}
	pred, hasPred := nd.Predecessor()
	if !hasPred {
		pred = succ // without a predecessor, claim (succ, id]: our full range
	}
	raw, err := n.Call(id, succ, rangeReq{From: pred, To: id})
	if err != nil {
		return 0, fmt.Errorf("chord: pulling keys for %v: %w", id, err)
	}
	items := raw.(rangeResp).Items
	n.storeMu.Lock()
	st := n.stores[nd.slot]
	if st == nil {
		st = make(map[ring.Point][]byte, len(items))
		n.stores[nd.slot] = st
	}
	for _, item := range items {
		st[item.Key] = item.Value
	}
	n.storeMu.Unlock()
	return len(items), nil
}

// StoredKeys returns the number of keys node id currently holds
// (primaries plus replicas).
func (n *Network) StoredKeys(id ring.Point) (int, error) {
	nd, err := n.Node(id)
	if err != nil {
		return 0, err
	}
	n.storeMu.RLock()
	defer n.storeMu.RUnlock()
	return len(n.stores[nd.slot]), nil
}

// Leave removes node id gracefully: it hands its stored items to its
// successor, splices its predecessor and successor together, and only
// then departs. Unlike Crash, successor pointers and stored data are
// correct immediately, with no stabilization round. Finger tables of
// other nodes still reference the departed node until fix-fingers
// refreshes them, so sustained departures need maintenance running just
// as in real Chord.
func (n *Network) Leave(id ring.Point) error {
	nd, err := n.Node(id)
	if err != nil {
		return err
	}
	succ := nd.Successor()
	if succ != id {
		// Hand over stored items (initiator-driven, one put per item; a
		// production system would batch, which the simulator's cost
		// model would count identically per item).
		n.storeMu.RLock()
		items := make([]Item, 0, len(n.stores[nd.slot]))
		for k, v := range n.stores[nd.slot] {
			items = append(items, Item{Key: k, Value: v})
		}
		n.storeMu.RUnlock()
		for _, item := range items {
			if _, err := n.Call(id, succ, putReq{Key: item.Key, Value: item.Value}); err != nil {
				return fmt.Errorf("chord: leave %v: handing key %v to %v: %w", id, item.Key, succ, err)
			}
		}
		// Splice the ring: successor adopts our predecessor; predecessor
		// adopts our successor. (Chord's notify would reject a candidate
		// counterclockwise of the leaver, so the splice sets the pointers
		// directly — the real protocol ships a dedicated leave message.)
		if pred, has := nd.Predecessor(); has && pred != id {
			if succNode, err := n.Node(succ); err == nil {
				n.adoptPredAfterLeave(succNode.slot, id, pred)
			}
			if predNode, err := n.Node(pred); err == nil {
				tail := []ring.Point(nil)
				if raw, err := n.Call(pred, succ, succListReq{}); err == nil {
					tail = raw.(succListResp).List
				}
				predNode.setSuccessors(succ, tail)
			}
		}
	}
	return n.Crash(id) // departure itself: deregister and mark dead
}

// adoptPredAfterLeave makes the leaver's successor (slot s) adopt the
// leaver's predecessor, unless it already learned a closer one.
func (n *Network) adoptPredAfterLeave(s uint32, leaver, pred ring.Point) {
	ps := n.Intern(pred) // before the stripe: Intern takes the core mutex
	a := &n.st
	st := n.Stripe(s)
	st.Lock()
	defer st.Unlock()
	if p := a.preds[s]; p == noSlot || n.ID(p) == leaver {
		a.preds[s] = ps
	}
}
