package actor

import (
	"slices"

	"diffusionlb/internal/shard"
)

// zMsg announces that the sender has written its normalized boundary
// loads for the round into the link's z version row. The receiver reads
// the version it selects straight from the sender's rows, with no copy:
// the channel receive orders the round's row write before that read, and
// the driver's join of all actors between rounds orders every earlier
// one.
type zMsg struct {
	round int
}

// fluxMsg announces that the sender has written the integer flows it
// rounded onto the link's cut arcs this round, and their sum, into the
// link's flux version row; the receiver credits them from there.
type fluxMsg struct {
	round int
}

// link is one directed communication edge between two actors that share
// boundary arcs. Each round it carries exactly one zMsg (normalized
// boundary loads, sent before flows are computed) and one fluxMsg (the
// rounded flows on the cut arcs); both channels have capacity 1 and are
// drained in the round they are filled.
//
// Field ownership is split by role so the two endpoint actors never race:
// the source actor writes the version rows and sentTotal, the destination
// actor only reads the rows and writes applied and appliedTotal.
type link struct {
	src, dst int

	// Static topology, fixed at construction.
	sendNodes []int32 // sorted unique tails of cutArcs (src's boundary nodes toward dst)
	cutArcs   []int32 // src-owned arcs with head in dst, in CSR arc order
	recvArcs  []int32 // mate[cutArcs[k]]: the dst-owned arc credited by flux entry k
	recvNodes []int32 // head of cutArcs[k]: the dst-owned tail of recvArcs[k]
	// ghost is the z index of the dst-side ghost slot holding sendNodes[0];
	// the link's ghost slots follow in sendNodes order.
	ghost int

	zCh chan zMsg
	fCh chan fluxMsg

	// Sender-written version rows: row v%(stale+1) holds version v of
	// the boundary z values (sendNodes order), of the cut-arc flows
	// (cutArcs order) and of their sum. With staleness bound S, round t
	// reads z version t−lag ≥ t−S and credits flux versions through
	// t−lag, so version v is read only in rounds v..v+S, and its row is
	// rewritten in round v+S+1, which starts after every actor has
	// finished round v+S.
	zRows [][]float64
	fRows [][]int64
	fSums []int64

	// applied is the newest flux version credited to dst's nodes
	// (receiver-owned; −1 before the first round).
	applied int
	// Conservation accounting: sentTotal accumulates every token handed to
	// the link (sender-owned), appliedTotal every token credited from it
	// (receiver-owned). Their difference is the link's in-flight load —
	// zero at every quiescence point in barrier mode.
	sentTotal    int64
	appliedTotal int64
}

// actorState is the private state of one actor: the node range it owns,
// its link endpoints and the staleness lags of the current round. Its
// kernel scratch is the engine's per-shard scratch of the same index.
type actorState struct {
	r      *Runtime
	id     int
	lo, hi int // owned node range

	in  []*link // links where this actor receives (dst == id), src ascending
	out []*link // links where this actor sends (src == id), dst ascending

	lag []int // per in-link staleness lag of the current round
}

// buildTopology populates r.act and r.links from the layout: one actor per
// shard, one directed link per ordered shard pair that shares cut arcs.
// Links are created in (src, dst) ascending order and per-actor link lists
// inherit that order, so the construction — and every reduction that walks
// it — is deterministic. It returns the halo view core.NewHalo builds the
// engine on: each link's receiving arcs read their heads from a run of
// ghost slots (one per boundary node of the sender), and every cut arc is
// its own mate.
func buildTopology(r *Runtime, lay *shard.Layout) (heads, mates []int32, ghosts int) {
	k := lay.Shards()
	g := lay.Graph()
	n := g.NumNodes()
	span := r.stale + 1
	offsets, arcs, mate := g.Offsets(), g.Arcs(), g.MateIndex()
	heads, mates = slices.Clone(arcs), slices.Clone(mate)
	r.act = make([]actorState, k)
	for s := 0; s < k; s++ {
		lo, hi := lay.NodeRange(s)
		r.act[s] = actorState{r: r, id: s, lo: lo, hi: hi}
	}
	// Cut arcs of the current source shard, grouped by destination shard;
	// tails recorded alongside so boundary node lists fall out of one scan.
	perDstArc := make([][]int32, k)
	perDstTail := make([][]int32, k)
	for s := 0; s < k; s++ {
		lo, hi := lay.NodeRange(s)
		for i := lo; i < hi; i++ {
			for a := int(offsets[i]); a < int(offsets[i+1]); a++ {
				j := int(arcs[a])
				if j >= lo && j < hi {
					continue
				}
				d := lay.ShardOf(j)
				perDstArc[d] = append(perDstArc[d], int32(a))
				perDstTail[d] = append(perDstTail[d], int32(i))
			}
		}
		for d := 0; d < k; d++ {
			cut, tails := perDstArc[d], perDstTail[d]
			if len(cut) == 0 {
				continue
			}
			perDstArc[d], perDstTail[d] = nil, nil
			l := &link{
				src: s, dst: d,
				cutArcs:   cut,
				recvArcs:  make([]int32, len(cut)),
				recvNodes: make([]int32, len(cut)),
				ghost:     n + ghosts,
				zCh:       make(chan zMsg, 1),
				fCh:       make(chan fluxMsg, 1),
				zRows:     make([][]float64, span),
				fRows:     make([][]int64, span),
				fSums:     make([]int64, span),
				applied:   -1,
			}
			// Tails arrive in non-decreasing order (the scan walks nodes in
			// order and CSR groups a node's arcs), so the unique boundary
			// node list and each receiving arc's ghost slot come from a
			// single pass.
			var send []int32
			for kk, a := range cut {
				if tail := tails[kk]; len(send) == 0 || send[len(send)-1] != tail {
					send = append(send, tail)
				}
				ra := mate[a]
				l.recvArcs[kk] = ra
				l.recvNodes[kk] = arcs[a]
				heads[ra] = int32(l.ghost + len(send) - 1)
				mates[a] = a
			}
			ghosts += len(send)
			l.sendNodes = send
			for v := 0; v < span; v++ {
				l.zRows[v] = make([]float64, len(send))
				l.fRows[v] = make([]int64, len(cut))
			}
			r.links = append(r.links, l)
		}
	}
	for _, l := range r.links {
		r.act[l.src].out = append(r.act[l.src].out, l)
		r.act[l.dst].in = append(r.act[l.dst].in, l)
	}
	for s := range r.act {
		r.act[s].lag = make([]int, len(r.act[s].in))
	}
	return heads, mates, ghosts
}
