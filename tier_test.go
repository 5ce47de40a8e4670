package lemp_test

import (
	"fmt"
	"testing"

	"lemp/internal/vecmath"
)

// TestDifferentialEveryTier runs the differential harness and the exact-θ
// tests under every kernel tier below the host's (vecmath.LimitTier), which
// the plain tests run: on a VNNI host the AVX2 and the portable kernels are
// held to internal/naive through every entry point too.
func TestDifferentialEveryTier(t *testing.T) {
	for tier := vecmath.TierPortable; tier < vecmath.HostTier(); tier++ {
		restore := vecmath.LimitTier(tier)
		for _, tc := range []struct {
			name string
			f    func(*testing.T)
		}{
			{"Differential", TestDifferential},
			{"DifferentialFixtures", TestDifferentialFixtures},
			{"TieContract", TestTieContract},
			{"ExactThetaEntryKept", TestExactThetaEntryKept},
			{"AboveThetaAtOwnValue", TestAboveThetaAtOwnValue},
		} {
			t.Run(fmt.Sprintf("tier=%s/%s", vecmath.Kernels(), tc.name), tc.f)
		}
		restore()
	}
}
