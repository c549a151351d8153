package vtime

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// oracleMember is an independent model of one resource member: its own
// copy of the progress state the kernel keeps on the Action.
type oracleMember struct {
	act                      *Action
	remaining, rate, settled float64
}

func (m *oracleMember) need() float64 {
	if m.act.RateCap == 0 {
		return math.Inf(1)
	}
	return m.act.RateCap * m.act.ResPerUnit
}

// oracleShare is the water-fill as it was before resources kept their
// members in need order: a stable sort of the submission order by need on
// every re-share, then equal allocation in that order.
func oracleShare(capacity float64, members []*oracleMember) {
	sorted := append([]*oracleMember(nil), members...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].need() < sorted[j].need() })
	left := capacity
	for i, m := range sorted {
		fair := left / float64(len(sorted)-i)
		alloc := fair
		if nd := m.need(); nd < alloc {
			alloc = nd
		}
		left -= alloc
		m.rate = alloc / m.act.ResPerUnit
	}
}

// TestNeedOrderMatchesStableSortWaterFill drives one resource through
// seeded random sequences of attaches (some with zero work), detaches and
// capacity changes over a mix of finite and unbounded needs with many
// ties, and checks after every flush that each member's rate and finish
// prediction are bitwise what the stable-sort water-fill gives.
func TestNeedOrderMatchesStableSortWaterFill(t *testing.T) {
	rateCaps := []float64{0, 0, 0.5, 1, 2, 3.7}
	perUnits := []float64{1, 1, 0.25, 3}
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel()
		capacity := 1 + 20*rng.Float64()
		r := k.NewResource("r", capacity)
		var model []*oracleMember // submission order
		for step := 0; step < 400; step++ {
			if rng.Intn(3) > 0 {
				k.now += 0.05 * rng.Float64()
			}
			switch op := rng.Intn(10); {
			case op < 5 || len(model) == 0:
				w := 0.0
				if rng.Intn(5) > 0 {
					w = 10 * rng.Float64()
				}
				act := &Action{
					Work:       w,
					RateCap:    rateCaps[rng.Intn(len(rateCaps))],
					Res:        r,
					ResPerUnit: perUnits[rng.Intn(len(perUnits))],
				}
				k.submit(act)
				model = append(model, &oracleMember{act: act, remaining: w, settled: k.now})
			case op < 8:
				i := rng.Intn(len(model))
				act := model[i].act
				if act.heapIndex >= 0 {
					k.heap.removeAction(act)
				}
				k.fire(act)
				model = append(model[:i], model[i+1:]...)
			default:
				capacity = 1 + 20*rng.Float64()
				r.SetCapacity(capacity)
			}
			k.flushDirty()

			for _, m := range model {
				if dt := k.now - m.settled; dt > 0 && m.rate > 0 {
					m.remaining -= dt * m.rate
					if m.remaining < 0 {
						m.remaining = 0
					}
				}
				m.settled = k.now
			}
			oracleShare(capacity, model)
			if len(r.members) != len(model) {
				t.Fatalf("seed %d step %d: %d members, oracle has %d", seed, step, len(r.members), len(model))
			}
			for _, m := range model {
				finish := k.now
				if m.remaining > workEpsilon {
					finish = k.now + m.remaining/m.rate
				}
				if math.Float64bits(m.act.rate) != math.Float64bits(m.rate) ||
					math.Float64bits(m.act.finishAt) != math.Float64bits(finish) {
					t.Fatalf("seed %d step %d: member seq %d has rate %v finish %v, oracle %v / %v",
						seed, step, m.act.seq, m.act.rate, m.act.finishAt, m.rate, finish)
				}
			}
		}
	}
}

// TestBlockingCallFromPostCallbackPanics checks that kernel context is
// still told apart from actor context now that the kernel phase runs on
// an actor's goroutine: a Post callback that blocks on an actor — even
// the one whose goroutine is running the callback — fails with the
// <kernel> context message, re-raised from Run.
func TestBlockingCallFromPostCallbackPanics(t *testing.T) {
	k := NewKernel()
	k.Spawn("victim", func(a *Actor) {
		k.Post(Action{Delay: 1}, func() { a.Sleep(1) })
		a.Sleep(2)
	})
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, `blocking call on actor "victim" from execution context of "<kernel>"`) {
			t.Fatalf("Run panicked with %q, want the <kernel> context message", msg)
		}
	}()
	err := k.Run()
	t.Fatalf("Run returned %v instead of panicking", err)
}
