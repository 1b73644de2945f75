package core

import (
	"testing"

	"sepdc/internal/chaos"
	"sepdc/internal/pointgen"
	"sepdc/internal/vm"
	"sepdc/internal/xrand"
)

// TestCorrectionCostPinned pins the simulated vector-model charge of the
// query correction: building the Section-3 structure over one side's
// crossing balls and querying every point of the other side against it
// (steps = deepest query path + 2, work = Σ nodes visited + hits).
// Experiments E6/E7 report this charge, so a change to the query engine
// behind the correction must leave it exactly as recorded. The
// hyperplane build corrects every node this way; the sphere build is
// routed there by chaos-forced threshold punts at every depth. The
// charge is execution-independent, so both machines must agree.
func TestCorrectionCostPinned(t *testing.T) {
	pts := pointgen.Dedup(pointgen.MustGenerate(pointgen.UniformCube, 3000, 2, xrand.New(61)))
	punt := &chaos.Injector{PuntDepths: chaos.DepthSet{All: true}}
	cases := []struct {
		name  string
		run   func(*Options) (*Result, error)
		steps int64
		work  int64
		pairs int
	}{
		{"hyperplane", func(o *Options) (*Result, error) {
			return HyperplaneDNC(pts, xrand.New(62), o)
		}, 136, 175589, 7880},
		{"sphere-forced-punts", func(o *Options) (*Result, error) {
			o.Chaos = punt
			return SphereDNC(pts, xrand.New(63), o)
		}, 193, 194816, 14502},
	}
	for _, tc := range cases {
		for _, m := range []*vm.Machine{vm.Sequential(), vm.NewMachine(4)} {
			res, err := tc.run(&Options{K: 4, Machine: m})
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			st := res.Stats
			if st.QueryCorrections == 0 || st.FastCorrections != 0 {
				t.Fatalf("%s: %d query corrections, %d fast; want only query corrections",
					tc.name, st.QueryCorrections, st.FastCorrections)
			}
			if st.Cost.Steps != tc.steps || st.Cost.Work != tc.work || st.CandidatePairs != tc.pairs {
				t.Errorf("%s: steps %d work %d pairs %d, want %d %d %d", tc.name,
					st.Cost.Steps, st.Cost.Work, st.CandidatePairs, tc.steps, tc.work, tc.pairs)
			}
			assertExact(t, pts, res.Lists, 4, tc.name)
		}
	}
}
