// Fixture for the globalrand analyzer: the process-global math/rand source
// and any crypto/rand are violations; an explicitly seeded *rand.Rand is not.
package globalrand

import (
	crand "crypto/rand" // want `crypto/rand reads host entropy and can never replay`
	"math/rand"
)

func bad() {
	_ = rand.Intn(6)                   // want `math/rand\.Intn draws from the shared process-global source`
	_ = rand.Float64()                 // want `math/rand\.Float64 draws from the shared process-global source`
	rand.Shuffle(3, func(i, j int) {}) // want `math/rand\.Shuffle draws from the shared process-global source`
	_, _ = crand.Read(make([]byte, 8)) // the import line above carries the diagnostic
}

func good() int {
	r := rand.New(rand.NewSource(42)) // explicit caller-seeded generator
	return r.Intn(6)                  // method on *rand.Rand, not the global source
}
