package store

import (
	"bytes"
	"testing"

	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/testutil"
)

// FuzzStoreRestore drives Restore with arbitrary bundles, seeded with the
// legacy and current golden bundles, their truncations and byte flips.
// Restore resolves every topology record to an assignment by graph index,
// strategy key and part count — all read from the file — so it must never
// panic, and on success every restored topology must equal a fresh build
// from the restored assignment of its tuple.
func FuzzStoreRestore(f *testing.F) {
	for _, name := range []string{"store.snap", "persist.snap"} {
		data := readGolden(f, name)
		f.Add(data)
		for _, n := range []int{0, 20, len(data) / 3, len(data) / 2, len(data) - 1} {
			f.Add(data[:n])
		}
		for _, off := range []int{12, 20, len(data) / 4, len(data) / 2, len(data) - 3} {
			m := append([]byte(nil), data...)
			m[off] ^= 0x01
			f.Add(m)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := New(Config{MaxBytes: -1, Build: pregel.BuildOptions{Parallelism: 1}})
		if _, err := st.Restore(bytes.NewReader(data)); err != nil {
			return
		}
		for k, e := range st.entries {
			if k.kind != kindBuilt {
				continue
			}
			ak := k
			ak.kind = kindAssignment
			ae, ok := st.entries[ak]
			if !ok {
				t.Fatalf("topology %s/%d restored without its assignment", k.strategy, k.numParts)
			}
			want, err := pregel.NewPartitionedGraphFromAssignment(ae.val.(*partition.Assignment), pregel.BuildOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := testutil.SameTopology(e.val.(*pregel.PartitionedGraph), want); err != nil {
				t.Fatalf("restored topology %s/%d differs from a fresh build: %v", k.strategy, k.numParts, err)
			}
		}
	})
}
