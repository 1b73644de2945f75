package septree

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"testing"

	"sepdc/internal/chaos"
	"sepdc/internal/nbrsys"
	"sepdc/internal/pointgen"
	"sepdc/internal/separator"
	"sepdc/internal/vec"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// frozenFingerprint builds and freezes a structure over sys and hashes
// every flat array the query engine reads — node kinds, child ids, the
// float64 bits of the separator records, the leaf CSR offsets, ids and
// the bits of the inlined leaf records — together with the BuildStats.
// Two builds with equal fingerprints serve byte-identical structures.
func frozenFingerprint(t *testing.T, sys *nbrsys.System, seed uint64, opts *Options) (string, BuildStats) {
	t.Helper()
	tree, err := Build(sys, xrand.New(seed), opts)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Freeze(tree)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, arr := range []any{f.kind, f.child, f.sep, f.leafOff, f.leafBalls, f.leafRecs} {
		// binary.Write stores float64s as their IEEE-754 bits.
		if err := binary.Write(h, binary.LittleEndian, uint64(binary.Size(arr))); err != nil {
			t.Fatal(err)
		}
		if err := binary.Write(h, binary.LittleEndian, arr); err != nil {
			t.Fatal(err)
		}
	}
	fmt.Fprintf(h, "%+v", tree.Stats)
	return hex.EncodeToString(h.Sum(nil))[:16], tree.Stats
}

func fingerprintSystem(dist pointgen.Dist, n, d, k int, seed uint64) *nbrsys.System {
	pts := pointgen.Dedup(pointgen.MustGenerate(dist, n, d, xrand.New(seed)))
	return nbrsys.KNeighborhood(pts, k)
}

// TestFrozenFingerprintGolden pins the exact flat structure Build and
// Freeze produce for a fixed set of inputs. The values were recorded
// before the build was changed to emit the flat arrays directly, so a
// pass proves the emitted structure is byte-identical to the one the
// pointer-tree pipeline froze. Never regenerate them to make a change
// pass: a mismatch means the served structure changed.
func TestFrozenFingerprintGolden(t *testing.T) {
	sepFail, err := chaos.Parse("sep-fail=all")
	if err != nil {
		t.Fatal(err)
	}
	identical := &nbrsys.System{Centers: make([]vec.Vec, 200), Radii: make([]float64, 200)}
	for i := range identical.Centers {
		identical.Centers[i] = vec.Of(1, 1)
		identical.Radii[i] = 1
	}
	cases := []struct {
		name string
		sys  *nbrsys.System
		opts *Options
		want string
	}{
		{"uniform-d2", fingerprintSystem(pointgen.UniformCube, 2000, 2, 3, 1), nil, "7e2d5703f4b4a9bd"},
		{"uniform-d3", fingerprintSystem(pointgen.UniformCube, 1500, 3, 3, 2), nil, "20c01a2d4fe4515e"},
		{"uniform-d5", fingerprintSystem(pointgen.UniformCube, 800, 5, 3, 3), nil, "0cfc2b012b804835"},
		{"clustered-d2", fingerprintSystem(pointgen.Clustered, 2000, 2, 3, 4), nil, "db161bce2266f39f"},
		{"sep-fail-all", fingerprintSystem(pointgen.UniformCube, 1500, 2, 3, 5),
			&Options{Sep: &separator.Options{Chaos: sepFail}}, "b2eb4bc414299a56"},
		{"single-leaf", fingerprintSystem(pointgen.UniformCube, 200, 2, 2, 6), &Options{LeafSize: 500}, "1102d0ac14d74e67"},
		{"identical-centers", identical, &Options{LeafSize: 16}, "1302587da1b0886a"},
	}
	for _, c := range cases {
		got, st := frozenFingerprint(t, c.sys, 42, c.opts)
		if got != c.want {
			t.Errorf("%s: fingerprint %s, want %s", c.name, got, c.want)
		}
		switch {
		case c.name == "sep-fail-all" && st.Punts == 0:
			t.Errorf("%s: no punted node (%+v)", c.name, st)
		case c.name == "single-leaf" && st.Leaves != 1:
			t.Errorf("%s: %d leaves, want 1", c.name, st.Leaves)
		case c.name == "identical-centers" && st.ForcedLeaves == 0:
			t.Errorf("%s: no forced leaf (%+v)", c.name, st)
		}
	}
	// The parallel machine splits the RNG before forking, so the
	// structure does not depend on execution interleaving.
	seq, _ := frozenFingerprint(t, cases[1].sys, 42, nil)
	if par, _ := frozenFingerprint(t, cases[1].sys, 42, &Options{Machine: vm.NewMachine(2)}); par != seq {
		t.Errorf("parallel build fingerprint %s, sequential %s", par, seq)
	}
}
