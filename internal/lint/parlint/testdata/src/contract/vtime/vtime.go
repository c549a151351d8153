// Package vtime is a stub of the real kernel API (internal/vtime) for
// the parlint corpus: parlint matches the API by package-path suffix,
// so the corpus exercises the analyzers without depending on the
// repo's packages.
package vtime

// Action mirrors the fluid work request of the real kernel.
type Action struct {
	Delay float64
	Work  float64
}

// Kernel is the stub scheduler.
type Kernel struct{ conds []*Cond }

func (k *Kernel) Spawn(name string, fn func(*Actor)) *Actor { return &Actor{k: k} }
func (k *Kernel) Post(a Action, fn func())                  {}
func (k *Kernel) NewCond(name string) *Cond {
	c := &Cond{}
	k.conds = append(k.conds, c)
	return c
}
func (k *Kernel) NewResource(name string, capacity float64) *Resource { return &Resource{} }

// Actor is one simulated thread of control.
type Actor struct{ k *Kernel }

func (a *Actor) Compute(sec float64) {}
func (a *Actor) Execute(act Action)  {}

// Cond is the stub condition variable.
type Cond struct{ waiters int }

func (c *Cond) Wait(a *Actor)  {}
func (c *Cond) Signal() bool   { return false }
func (c *Cond) Broadcast() int { return 0 }

// Resource is the stub shared resource.
type Resource struct{ capacity float64 }

func (r *Resource) SetCapacity(c float64) { r.capacity = c }
