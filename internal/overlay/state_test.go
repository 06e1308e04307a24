package overlay

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"rasc.dev/rasc/internal/transport"
)

func info(id ID) NodeInfo {
	return NodeInfo{ID: id, Addr: transport.Addr("sim://" + id.String()[:6])}
}

func TestRoutingTableAddLookup(t *testing.T) {
	owner, _ := ParseID("a0000000000000000000000000000000")
	rt := routingTable{owner: owner}
	peer, _ := ParseID("a1000000000000000000000000000000") // cpl=1, digit 1 of peer = 1
	if !rt.add(info(peer)) {
		t.Fatal("add returned false for fresh entry")
	}
	if rt.add(info(peer)) {
		t.Fatal("duplicate add reported change")
	}
	got := rt.lookup(1, 1)
	if got == nil || got.ID != peer {
		t.Fatalf("lookup = %v", got)
	}
	if rt.lookup(0, 0xb) != nil {
		t.Fatal("unexpected entry")
	}
	if rt.size() != 1 {
		t.Fatalf("size = %d", rt.size())
	}
}

func TestRoutingTableIgnoresOwner(t *testing.T) {
	owner := HashID("me")
	rt := routingTable{owner: owner}
	if rt.add(info(owner)) {
		t.Fatal("added owner to its own table")
	}
}

func TestRoutingTableFirstWriterWins(t *testing.T) {
	owner, _ := ParseID("00000000000000000000000000000000")
	rt := routingTable{owner: owner}
	a, _ := ParseID("50000000000000000000000000000000")
	b, _ := ParseID("51000000000000000000000000000000") // same row 0, digit 5
	rt.add(info(a))
	if rt.add(info(b)) {
		t.Fatal("second writer displaced first")
	}
	if rt.lookup(0, 5).ID != a {
		t.Fatal("entry overwritten")
	}
}

func TestRoutingTableRemove(t *testing.T) {
	owner, _ := ParseID("00000000000000000000000000000000")
	rt := routingTable{owner: owner}
	a, _ := ParseID("70000000000000000000000000000000")
	rt.add(info(a))
	if !rt.remove(a) {
		t.Fatal("remove existing failed")
	}
	if rt.remove(a) {
		t.Fatal("remove reported success twice")
	}
	if rt.remove(owner) {
		t.Fatal("removing owner should be a no-op")
	}
}

func TestRoutingTableRow(t *testing.T) {
	owner, _ := ParseID("00000000000000000000000000000000")
	rt := routingTable{owner: owner}
	for d := 1; d < 8; d++ {
		id, _ := ParseID(fmt.Sprintf("%x0000000000000000000000000000000", d))
		rt.add(info(id))
	}
	if got := len(rt.row(0)); got != 7 {
		t.Fatalf("row 0 has %d entries, want 7", got)
	}
	if got := len(rt.row(5)); got != 0 {
		t.Fatalf("row 5 has %d entries, want 0", got)
	}
	if got := len(rt.all()); got != 7 {
		t.Fatalf("all() has %d entries, want 7", got)
	}
}

func TestLeafSetOrderingAndTrim(t *testing.T) {
	owner, _ := ParseID("80000000000000000000000000000000")
	ls := newLeafSet(owner, 4) // 2 per side
	mk := func(hexID string) NodeInfo {
		id, err := ParseID(hexID)
		if err != nil {
			t.Fatal(err)
		}
		return info(id)
	}
	ls.add(mk("80000000000000000000000000000003")) // cw dist 3
	ls.add(mk("80000000000000000000000000000001")) // cw dist 1
	ls.add(mk("80000000000000000000000000000002")) // cw dist 2, evicts 3
	ls.add(mk("7fffffffffffffffffffffffffffffff")) // ccw dist 1
	ls.add(mk("7ffffffffffffffffffffffffffffffe")) // ccw dist 2
	if len(ls.cw) != 2 {
		t.Fatalf("cw size = %d, want 2", len(ls.cw))
	}
	if ls.cw[0].ID.String()[31] != '1' || ls.cw[1].ID.String()[31] != '2' {
		t.Fatalf("cw order wrong: %v", ls.cw)
	}
	// A node farther than both full sides must not displace anything.
	if ls.add(mk("80000000000000000000000000000004")) {
		t.Fatal("far node insertion reported change")
	}
}

func TestLeafSetCovers(t *testing.T) {
	owner, _ := ParseID("80000000000000000000000000000000")
	ls := newLeafSet(owner, 2) // one node per side: no wraparound overlap
	if !ls.covers(HashID("anything")) {
		t.Fatal("empty leaf set must cover everything")
	}
	lo, _ := ParseID("7f000000000000000000000000000000")
	hi, _ := ParseID("81000000000000000000000000000000")
	ls.add(info(lo))
	ls.add(info(hi))
	in, _ := ParseID("80500000000000000000000000000000")
	out, _ := ParseID("ff000000000000000000000000000000")
	if !ls.covers(in) {
		t.Fatal("key inside segment not covered")
	}
	if ls.covers(out) {
		t.Fatal("key outside segment covered")
	}
}

func TestLeafSetClosest(t *testing.T) {
	owner, _ := ParseID("80000000000000000000000000000000")
	ls := newLeafSet(owner, 8)
	near, _ := ParseID("80000000000000000000000000000010")
	far, _ := ParseID("90000000000000000000000000000000")
	ls.add(info(near))
	ls.add(info(far))
	key, _ := ParseID("80000000000000000000000000000011")
	best, ok := ls.closest(key)
	if !ok || best.ID != near {
		t.Fatalf("closest = %v ok=%v", best, ok)
	}
	// Key on top of owner: owner itself is closest.
	if _, ok := ls.closest(owner); ok {
		t.Fatal("owner should win for its own ID")
	}
}

func TestLeafSetRemove(t *testing.T) {
	owner := HashID("owner")
	ls := newLeafSet(owner, 8)
	a := HashID("a")
	ls.add(info(a))
	if !ls.remove(a) {
		t.Fatal("remove failed")
	}
	if ls.remove(a) {
		t.Fatal("double remove reported success")
	}
	if ls.size() != 0 {
		t.Fatalf("size = %d after remove", ls.size())
	}
}

// Property: with many random members, the leaf set keeps exactly the `half`
// closest nodes on each side.
func TestLeafSetKeepsClosest(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	owner := RandomID(rng)
	const half = 8
	ls := newLeafSet(owner, 2*half)
	var members []ID
	for i := 0; i < 200; i++ {
		id := RandomID(rng)
		members = append(members, id)
		ls.add(info(id))
	}
	// Compute expected cw side by brute force.
	type cand struct {
		id   ID
		dist ID
	}
	var cands []cand
	for _, m := range members {
		cands = append(cands, cand{m, CWDist(owner, m)})
	}
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			if cands[j].dist.Cmp(cands[i].dist) < 0 {
				cands[i], cands[j] = cands[j], cands[i]
			}
		}
	}
	if len(ls.cw) != half {
		t.Fatalf("cw side has %d, want %d", len(ls.cw), half)
	}
	for i := 0; i < half; i++ {
		if ls.cw[i].ID != cands[i].id {
			t.Fatalf("cw[%d] = %v, want %v", i, ls.cw[i].ID, cands[i].id)
		}
	}
}

// insertOracle is the original leaf-set insert: append, sort every entry
// by distance, trim to half, and report whether info survived the trim.
func (l *leafSet) insertOracle(side *[]NodeInfo, info NodeInfo, clockwise bool) bool {
	for _, e := range *side {
		if e.ID == info.ID {
			return false
		}
	}
	s := append(*side, info)
	sort.Slice(s, func(i, j int) bool {
		return l.dist(s[i].ID, clockwise).Cmp(l.dist(s[j].ID, clockwise)) < 0
	})
	if len(s) > l.half {
		s = s[:l.half]
	}
	*side = s
	for _, e := range *side {
		if e.ID == info.ID {
			return true
		}
	}
	return false
}

// TestLeafSetInsertMatchesOracle drives random add/remove streams through
// the binary insert and the append-sort-trim oracle and requires identical
// sides and identical change reports after every operation.
func TestLeafSetInsertMatchesOracle(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		owner := RandomID(rng)
		size := []int{0, 2, 4, 16}[seed%4]
		got, want := newLeafSet(owner, size), newLeafSet(owner, size)
		var ids []ID
		for op := 0; op < 2000; op++ {
			if len(ids) > 0 && rng.Intn(4) == 0 {
				id := ids[rng.Intn(len(ids))]
				if got.remove(id) != want.remove(id) {
					t.Fatalf("seed %d op %d: remove reports differ", seed, op)
				}
			} else {
				var id ID
				if len(ids) > 0 && rng.Intn(3) == 0 {
					id = ids[rng.Intn(len(ids))] // re-add a known peer
				} else {
					id = RandomID(rng)
					ids = append(ids, id)
				}
				for _, cw := range []bool{true, false} {
					gs, ws := &got.ccw, &want.ccw
					if cw {
						gs, ws = &got.cw, &want.cw
					}
					if got.insert(gs, info(id), cw) != want.insertOracle(ws, info(id), cw) {
						t.Fatalf("seed %d op %d cw=%v: insert reports differ", seed, op, cw)
					}
				}
			}
			if !reflect.DeepEqual(ids32(got.cw), ids32(want.cw)) || !reflect.DeepEqual(ids32(got.ccw), ids32(want.ccw)) {
				t.Fatalf("seed %d op %d: sides differ\ncw  %v\n    %v\nccw %v\n    %v",
					seed, op, ids32(got.cw), ids32(want.cw), ids32(got.ccw), ids32(want.ccw))
			}
		}
	}
}

func ids32(s []NodeInfo) []ID {
	out := make([]ID, len(s))
	for i, e := range s {
		out[i] = e.ID
	}
	return out
}

// TestLeafSetInsertDoesNotAllocate pins the hot path: learning a peer on
// a full leaf set (every received message does) allocates nothing.
func TestLeafSetInsertDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	l := newLeafSet(RandomID(rng), DefaultLeafSetSize)
	for i := 0; i < 100; i++ {
		l.add(info(RandomID(rng)))
	}
	peers := make([]NodeInfo, 64)
	for i := range peers {
		peers[i] = info(RandomID(rng))
	}
	i := 0
	if allocs := testing.AllocsPerRun(1000, func() {
		l.add(peers[i%len(peers)])
		i++
	}); allocs != 0 {
		t.Fatalf("leafSet.add allocated %.1f times per call", allocs)
	}
}

// TestRoutingTableNilRows covers the lazily allocated rows: every reader
// must treat a row that was never written as empty.
func TestRoutingTableNilRows(t *testing.T) {
	owner, _ := ParseID("a0000000000000000000000000000000")
	rt := routingTable{owner: owner}
	peer, _ := ParseID("a1000000000000000000000000000000")
	for r := 0; r < NumDigits; r++ {
		if rt.lookup(r, 1) != nil || rt.row(r) != nil {
			t.Fatalf("row %d of an empty table is not empty", r)
		}
	}
	if rt.remove(peer) || rt.all() != nil || rt.size() != 0 {
		t.Fatal("empty table reported entries")
	}
	rt.add(info(peer))
	for r := 0; r < NumDigits; r++ {
		if (rt.rows[r] != nil) != (r == 1) {
			t.Fatalf("row %d allocated = %v", r, rt.rows[r] != nil)
		}
	}
	other, _ := ParseID("b0000000000000000000000000000000")
	if rt.remove(other) {
		t.Fatal("removed an absent peer from an unallocated row")
	}
	if !rt.remove(peer) || rt.lookup(1, 1) != nil || len(rt.all()) != 0 {
		t.Fatal("remove left the entry behind")
	}
	rt.replace(info(other))
	if got := rt.lookup(0, 0xb); got == nil || got.ID != other {
		t.Fatalf("replace into an unallocated row: lookup = %v", got)
	}
}
