package core

import (
	"reflect"
	"testing"
)

// TestShardScratchOwnsItsCacheBlocks pins that no two shards of a 7-shard
// engine write the same cacheBlock: every shard writes its PCG and its
// compaction buffers once per node, so a shared block would bounce between
// the cores running them.
func TestShardScratchOwnsItsCacheBlocks(t *testing.T) {
	g := goldenGraph(t)
	d, err := NewDiscrete(Config{Op: testOperator(t, g, nil), Kind: SOS, Beta: 1.5, Workers: 7}, nil, 1, goldenInitial(g.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	if k := len(d.sh); k != 7 {
		t.Fatalf("%d shards, want 7", k)
	}
	typ := reflect.TypeOf(discreteShard{})
	first, _ := typ.FieldByName("vals")
	last, _ := typ.FieldByName("rng")
	owner := map[uintptr]int{}
	claim := func(s int, what string, p, size uintptr) {
		for b := p / cacheBlock; b <= (p+size-1)/cacheBlock; b++ {
			if o, ok := owner[b]; ok && o != s {
				t.Errorf("shard %d's %s shares cache block %#x with shard %d", s, what, b*cacheBlock, o)
			}
			owner[b] = s
		}
	}
	for s := range d.sh {
		sc := &d.sh[s]
		base := reflect.ValueOf(sc).Pointer()
		claim(s, "struct", base+first.Offset, last.Offset+last.Type.Size()-first.Offset)
		claim(s, "vals", reflect.ValueOf(sc.vals).Pointer(), uintptr(len(sc.vals))*8)
		claim(s, "out", reflect.ValueOf(sc.out).Pointer(), uintptr(len(sc.out))*8)
		claim(s, "arcs", reflect.ValueOf(sc.arcs).Pointer(), uintptr(len(sc.arcs))*4)
	}
}

// TestScheduledFlowsAllocatesOnce pins that ScheduledFlows allocates its
// buffer on the first call only, and that MemoryFootprint counts the
// buffer once it exists.
func TestScheduledFlowsAllocatesOnce(t *testing.T) {
	g := goldenGraph(t)
	sp, _ := goldenSpeeds(t, g.NumNodes())
	d, err := NewDiscrete(Config{Op: testOperator(t, g, sp), Kind: SOS, Beta: 1.5}, nil, 1, goldenInitial(g.NumNodes()))
	if err != nil {
		t.Fatal(err)
	}
	d.Step()
	before := d.MemoryFootprint()
	d.ScheduledFlows()
	if got, want := d.MemoryFootprint()-before, int64(g.NumArcs())*8; got != want {
		t.Errorf("ScheduledFlows' buffer adds %d B to MemoryFootprint, want %d", got, want)
	}
	d.Step()
	if allocs := testing.AllocsPerRun(5, func() { d.ScheduledFlows() }); allocs != 0 {
		t.Errorf("later ScheduledFlows calls allocate %.1f objects, want 0", allocs)
	}
}
