package vec

import "os"

// Kernel tiers. The dispatch table in kernel.go serves three
// implementations of the same bit-identical contract, in increasing
// order of specialization:
//
//	generic  — the flat bounds-check-hoisted loops (Dist2Flat & co).
//	unrolled — dimension-specialized straight-line Go (PR 6).
//	asm      — hand-written AVX2 assembly eight-lane batch forms (amd64 only).
//
// Priority when nothing is forced is asm > unrolled > generic: the
// highest tier the build and the CPU support wins. The KNN_KERNELS
// environment variable pins a tier explicitly (values "generic",
// "unrolled", "asm") — CI runs the suite once per tier so the lower
// rungs can never rot. Requesting asm on a machine or build without
// AVX2 support degrades to unrolled rather than faulting.
//
// All tiers return bit-identical results, so switching tiers is purely
// a performance decision; the cross-algorithm equality tests hold under
// every setting.

// KernelTier identifies which kernel implementation family the
// dispatch table serves.
type KernelTier uint8

const (
	// TierGeneric serves the flat loops for every dimension.
	TierGeneric KernelTier = iota
	// TierUnrolled serves the dimension-specialized Go bodies.
	TierUnrolled
	// TierAsm serves the AVX2 assembly batch kernels where they exist
	// (eight-lane forms, d=2..8) and the unrolled bodies elsewhere.
	TierAsm
)

func (t KernelTier) String() string {
	switch t {
	case TierGeneric:
		return "generic"
	case TierUnrolled:
		return "unrolled"
	case TierAsm:
		return "asm"
	default:
		return "unknown"
	}
}

// ParseTier maps a KNN_KERNELS value to a tier. The second result is
// false for unrecognized strings.
func ParseTier(s string) (KernelTier, bool) {
	switch s {
	case "generic":
		return TierGeneric, true
	case "unrolled":
		return TierUnrolled, true
	case "asm":
		return TierAsm, true
	default:
		return 0, false
	}
}

// activeTier is resolved once at init. It is deliberately a plain
// variable, not atomic: the serving path captures kernels at freeze
// time, and the only mutator besides init is the SetActiveTier test
// seam, which callers use before building trees.
var activeTier = initTier()

func initTier() KernelTier {
	if s, ok := os.LookupEnv("KNN_KERNELS"); ok {
		if t, known := ParseTier(s); known {
			if t == TierAsm && !asmSupported {
				return TierUnrolled
			}
			return t
		}
	}
	if asmSupported {
		return TierAsm
	}
	return TierUnrolled
}

// ActiveTier reports the tier the kernel selectors currently serve.
func ActiveTier() KernelTier { return activeTier }

// AsmSupported reports whether the assembly kernels are linked into
// this build and runnable on this CPU (amd64, not purego, AVX2 with OS
// ymm state enabled).
func AsmSupported() bool { return asmSupported }

// SetActiveTier forces the dispatch tier and returns the previous one.
// A request for TierAsm on an unsupported build degrades to
// TierUnrolled, mirroring the env override. This is a test and
// benchmark seam: call it before freezing trees, restore the previous
// value when done, and do not race it against concurrent freezes.
func SetActiveTier(t KernelTier) KernelTier {
	prev := activeTier
	if t == TierAsm && !asmSupported {
		t = TierUnrolled
	}
	activeTier = t
	return prev
}
