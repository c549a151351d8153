// Package hidden is the seeded acceptance case for globalmut: a
// package-level write two helper calls below an actor body, and one
// inside a completion callback.  The interprocedural suite follows
// body → level1 → level2 and reports both writes; the syntactic suite
// finds nothing here (asserted in parlint_test.go), because no single
// function syntactically contains both the simulation context and the
// write.
package hidden

import "contract.example/vtime"

var (
	steps int
	last  float64
)

func Run(k *vtime.Kernel) {
	k.Spawn("t", func(a *vtime.Actor) {
		level1(k)
	})
	// Setup code is not simulation code: writing here is legal.
	steps = 0
}

func level1(k *vtime.Kernel) { level2(k) }

func level2(k *vtime.Kernel) {
	steps++ // want `write to package-level hidden\.steps from simulation code \(via hidden\.Run\$1 → hidden\.level1 → hidden\.level2\)`
	k.Post(vtime.Action{Delay: 1}, func() {
		last = 1 // want `write to package-level hidden\.last from simulation code \(via hidden\.level2\$1\)`
	})
}
