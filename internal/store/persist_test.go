package store

import (
	"bytes"
	"reflect"
	"testing"

	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/snap"
	"cutfit/internal/testutil"
)

// TestPersistEvictedAssignment: a topology whose assignment entry was
// evicted still persists restorably — Persist encodes the assignment from
// the topology's retained PID order — and the first Built after Restore is
// a hit equal to the original.
func TestPersistEvictedAssignment(t *testing.T) {
	g := testGraph(t, 300, 1500, 11)
	s := partition.EdgePartition2D()
	// A one-byte budget keeps only the newest entry: Built inserts the
	// assignment, then the topology, which evicts it.
	st := New(Config{MaxBytes: 1})
	want, err := st.Built(g, s, 16)
	if err != nil {
		t.Fatal(err)
	}
	wantPIDs := append([]partition.PID(nil), want.AssignOrder()...)
	if stats := st.Stats(); stats.Entries != 1 || stats.Evictions != 1 {
		t.Fatalf("stats %+v, want the assignment evicted and only the topology live", stats)
	}

	var buf bytes.Buffer
	sum, err := st.Persist(&buf, map[string]*graph.Graph{"g": g})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Artifacts != 2 {
		t.Fatalf("Persist wrote %d artifacts, want 2 (assignment + key-only topology)", sum.Artifacts)
	}

	st2 := New(Config{})
	named, err := st2.Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st2.Built(named["g"], s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if stats := st2.Stats(); stats.Misses != 0 || stats.Hits != 1 {
		t.Fatalf("post-restore stats %+v, want the first Built to hit", stats)
	}
	if err := testutil.SameTopology(got, want); err != nil {
		t.Fatalf("restored topology differs: %v", err)
	}
	a, err := st2.Assignment(named["g"], s, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.PIDs, wantPIDs) || a.StrategyKey() != partition.KeyOf(s) {
		t.Fatal("assignment persisted from the topology differs")
	}
}

// TestRestoreSkipsTopologyWithoutAssignment: a topology record whose tuple
// has no assignment record is skipped, so the first request rebuilds it —
// a miss, never a wrong artifact.
func TestRestoreSkipsTopologyWithoutAssignment(t *testing.T) {
	want, g := goldenCache(t)
	s := partition.EdgePartition2D()
	wantPG, err := want.Built(g, s, goldenParts)
	if err != nil {
		t.Fatal(err)
	}
	data := snap.EncodeStore(
		[]snap.StoreGraph{{Labels: []string{"g"}, Data: snap.EncodeGraph(g)}},
		[]snap.StoreArtifact{{GraphIndex: 0, Stage: snap.StageTopology, StrategyKey: partition.KeyOf(s), NumParts: goldenParts}},
	)
	st := New(Config{})
	named, err := st.Restore(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Stats().Entries; n != 0 {
		t.Fatalf("restore cached %d entries from a topology record without an assignment", n)
	}
	pg, err := st.Built(named["g"], s, goldenParts)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().Misses == 0 {
		t.Fatal("first Built after restore hit without a restored assignment")
	}
	if err := testutil.SameTopology(pg, wantPG); err != nil {
		t.Fatalf("rebuilt topology differs: %v", err)
	}
}

// TestRestoreRejectsDuplicateAssignment: a bundle with two assignment
// records for one tuple is rejected, so a topology rebuilt from the first
// can never be cached next to the second.
func TestRestoreRejectsDuplicateAssignment(t *testing.T) {
	st, g := goldenCache(t)
	s := partition.EdgePartition2D()
	a, err := st.Assignment(g, s, goldenParts)
	if err != nil {
		t.Fatal(err)
	}
	rec := snap.StoreArtifact{GraphIndex: 0, Stage: snap.StageAssignment, StrategyKey: partition.KeyOf(s), NumParts: goldenParts, Data: snap.EncodeAssignment(a)}
	data := snap.EncodeStore([]snap.StoreGraph{{Data: snap.EncodeGraph(g)}}, []snap.StoreArtifact{rec, rec})
	if _, err := New(Config{}).Restore(bytes.NewReader(data)); err == nil {
		t.Fatal("bundle with a duplicate assignment record restored")
	}
}
