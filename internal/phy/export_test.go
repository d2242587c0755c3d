package phy

import (
	"testing"

	"repro/internal/sim"
)

// CheckInterfererLists runs checkInterfererLists on m for tests in package
// phy_test, which build their worlds with core's topology generator (core
// imports phy, so those tests cannot live in this package).
func CheckInterfererLists(t *testing.T, m *Medium, seed uint64, rounds, maxOverlaps int) (checks, collided, band int) {
	st := checkInterfererLists(t, m, sim.NewRNG(seed), rounds, maxOverlaps)
	return st.checks, st.collided, st.band
}
