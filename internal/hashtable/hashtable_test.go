package hashtable

import (
	"encoding/binary"
	"testing"
	"testing/quick"

	"rackjoin/internal/datagen"
	"rackjoin/internal/relation"
)

func buildRel(keys []uint64) *relation.Relation {
	r := relation.New(relation.Width16, len(keys))
	for i, k := range keys {
		r.SetKey(i, k)
		r.SetRID(i, k*10)
	}
	return r
}

func TestBuildAndProbeEach(t *testing.T) {
	tbl := Build(buildRel([]uint64{1, 2, 3, 4, 5}))
	if tbl.Len() != 5 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	var hits []int
	tbl.ProbeEach(3, func(i int) { hits = append(hits, i) })
	if len(hits) != 1 || hits[0] != 2 {
		t.Fatalf("hits = %v", hits)
	}
	tbl.ProbeEach(99, func(i int) { t.Fatal("unexpected match") })
}

func TestProbeDuplicateBuildKeys(t *testing.T) {
	tbl := Build(buildRel([]uint64{7, 7, 7, 2}))
	count := 0
	tbl.ProbeEach(7, func(int) { count++ })
	if count != 3 {
		t.Fatalf("duplicate key matches = %d, want 3", count)
	}
}

func TestProbeRelation(t *testing.T) {
	inner := buildRel([]uint64{1, 2, 3})
	outer := relation.New(relation.Width16, 4)
	keys := []uint64{2, 3, 3, 9}
	for i, k := range keys {
		outer.SetKey(i, k)
		outer.SetRID(i, uint64(i+100))
	}
	tbl := Build(inner)
	matches, checksum := tbl.ProbeRelation(outer)
	if matches != 3 {
		t.Fatalf("matches = %d, want 3", matches)
	}
	// (2,20,100)+(3,30,101)+(3,30,102)
	want := uint64(2+20+100) + uint64(3+30+101) + uint64(3+30+102)
	if checksum != want {
		t.Fatalf("checksum = %d, want %d", checksum, want)
	}
}

func TestProbeRangeSplitsCoverWhole(t *testing.T) {
	w := datagen.Generate(datagen.Config{InnerTuples: 128, OuterTuples: 1000, Skew: datagen.SkewHigh, Seed: 11})
	tbl := Build(w.Inner)
	fullM, fullC := tbl.ProbeRelation(w.Outer)
	// Split the outer probe into 4 disjoint ranges (skew handling).
	var m, c uint64
	n := w.Outer.Len()
	for i := 0; i < 4; i++ {
		pm, pc := tbl.ProbeRange(w.Outer, n*i/4, n*(i+1)/4)
		m += pm
		c += pc
	}
	if m != fullM || c != fullC {
		t.Fatalf("split probe (%d,%d) != full probe (%d,%d)", m, c, fullM, fullC)
	}
}

func TestEmptyBuild(t *testing.T) {
	tbl := Build(relation.New(relation.Width16, 0))
	m, c := tbl.ProbeRelation(buildRel([]uint64{1, 2}))
	if m != 0 || c != 0 {
		t.Fatal("empty table produced matches")
	}
}

func TestMaterialize(t *testing.T) {
	inner := buildRel([]uint64{5})
	outer := relation.New(relation.Width16, 2)
	outer.SetKey(0, 5)
	outer.SetRID(0, 77)
	outer.SetKey(1, 6)
	outer.SetRID(1, 78)
	tbl := Build(inner)
	out, matches := tbl.Materialize(outer, nil)
	if matches != 1 || len(out) != ResultWidth {
		t.Fatalf("matches=%d len=%d", matches, len(out))
	}
	if binary.LittleEndian.Uint64(out[0:]) != 5 ||
		binary.LittleEndian.Uint64(out[8:]) != 50 ||
		binary.LittleEndian.Uint64(out[16:]) != 77 {
		t.Fatalf("bad record: %v", out)
	}
}

func TestLowBitClusteredKeys(t *testing.T) {
	// After radix partitioning all keys in a partition share low bits;
	// the table must still spread them (mixed high bits).
	keys := make([]uint64, 256)
	for i := range keys {
		keys[i] = uint64(i)<<12 | 0x5 // identical low 12 bits
	}
	tbl := Build(buildRel(keys))
	for _, k := range keys {
		n := 0
		tbl.ProbeEach(k, func(int) { n++ })
		if n != 1 {
			t.Fatalf("key %d matched %d times", k, n)
		}
	}
}

func TestWideTupleBuild(t *testing.T) {
	inner := relation.New(relation.Width64, 8)
	for i := 0; i < 8; i++ {
		inner.SetKey(i, uint64(i+1))
		inner.SetRID(i, uint64(i))
	}
	tbl := Build(inner)
	outer := relation.New(relation.Width64, 1)
	outer.SetKey(0, 3)
	outer.SetRID(0, 9)
	m, c := tbl.ProbeRelation(outer)
	if m != 1 || c != 3+2+9 {
		t.Fatalf("wide probe: m=%d c=%d", m, c)
	}
}

// Property: ProbeRelation agrees with a brute-force nested-loop join on
// arbitrary key multisets.
func TestPropertyProbeMatchesNestedLoop(t *testing.T) {
	f := func(innerKeys, outerKeys []uint8) bool {
		if len(innerKeys) == 0 {
			innerKeys = []uint8{1}
		}
		inner := relation.New(relation.Width16, len(innerKeys))
		for i, k := range innerKeys {
			inner.SetKey(i, uint64(k))
			inner.SetRID(i, uint64(i))
		}
		outer := relation.New(relation.Width16, len(outerKeys))
		for i, k := range outerKeys {
			outer.SetKey(i, uint64(k))
			outer.SetRID(i, uint64(1000+i))
		}
		tbl := Build(inner)
		m, c := tbl.ProbeRelation(outer)
		var bm, bc uint64
		for i := 0; i < outer.Len(); i++ {
			for j := 0; j < inner.Len(); j++ {
				if inner.Key(j) == outer.Key(i) {
					bm++
					bc += outer.Key(i) + inner.RID(j) + outer.RID(i)
				}
			}
		}
		return m == bm && c == bc
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Materialize and ProbeRelation agree on match counts, and every
// materialised record joins correctly.
func TestPropertyMaterializeConsistent(t *testing.T) {
	f := func(seed int64) bool {
		w := datagen.Generate(datagen.Config{InnerTuples: 64, OuterTuples: 256, Seed: seed})
		tbl := Build(w.Inner)
		m1, _ := tbl.ProbeRelation(w.Outer)
		out, m2 := tbl.Materialize(w.Outer, nil)
		if m1 != m2 || len(out) != int(m2)*ResultWidth {
			return false
		}
		for off := 0; off < len(out); off += ResultWidth {
			key := binary.LittleEndian.Uint64(out[off:])
			buildRID := binary.LittleEndian.Uint64(out[off+8:])
			if buildRID != key-1 { // datagen invariant
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRebuildReusesStorage rebuilds one table over a large, a small and a
// different large build side, with a stale chain array in between: every
// probe must match a table built fresh over the same tuples.
func TestRebuildReusesStorage(t *testing.T) {
	var tbl Table
	for round, n := range []int{5000, 37, 4096, 1, 6000} {
		keys := make([]uint64, n)
		for i := range keys {
			keys[i] = uint64((i*7 + round*13) % (n/2 + 1)) // duplicates on purpose
		}
		inner := buildRel(keys)
		outer := buildRel(keys[:n/2+1])
		tbl.Rebuild(inner)
		gotM, gotC := tbl.ProbeRelation(outer)
		wantM, wantC := Build(inner).ProbeRelation(outer)
		if gotM != wantM || gotC != wantC || tbl.Len() != n {
			t.Fatalf("round %d (n=%d): rebuilt table %d/%d, fresh %d/%d", round, n, gotM, gotC, wantM, wantC)
		}
	}
}
