package vtime

import (
	"errors"
	"runtime"
	"testing"
	"time"
)

// errKernelBoom is the value a Post callback panics with on the
// kernel-panic path; Run must re-raise exactly this value.
var errKernelBoom = errors.New("a Post callback panicked")

// failingRun builds a 50-actor simulation that fails the named way and
// runs it.  Every actor but a crashing one is parked when Run gives up:
// blocked on a condition that never fires, between actions, or (on the
// panic path) spawned but never started.  Their deferred calls panic or
// block again while they unwind.  On the kernel-panic path a Post
// callback panics while the kernel phase runs on a sleeper's goroutine.
func failingRun(t *testing.T, how string) {
	t.Helper()
	const actors = 50
	k := NewKernel()
	never := k.NewCond("never")
	for i := 0; i < actors/2; i++ {
		k.Spawn("waiter", func(a *Actor) {
			defer func() { panic("a deferred call panicking while the run is released") }()
			never.Wait(a)
			t.Error("a waiter ran past its condition")
		})
	}
	blockingDefer := func(a *Actor) { a.Sleep(1) }
	switch how {
	case "panic":
		k.Spawn("crasher", func(a *Actor) {
			a.Sleep(1)
			for i := 0; i < actors/2-1; i++ {
				k.Spawn("unstarted", func(a *Actor) {
					defer blockingDefer(a)
					t.Error("an actor started after the run failed")
				})
			}
			panic("boom")
		})
	case "deadlock":
		for i := 0; i < actors/2; i++ {
			k.Spawn("late-waiter", func(a *Actor) {
				defer blockingDefer(a)
				a.Sleep(1)
				never.Wait(a)
				t.Error("a late waiter ran past its condition")
			})
		}
	case "watchdog":
		k.SetWatchdog(Watchdog{MaxSteps: 100})
		for i := 0; i < actors/2; i++ {
			k.Spawn("spinner", func(a *Actor) {
				defer blockingDefer(a)
				for {
					a.Sleep(1)
				}
			})
		}
	case "kernel-panic":
		for i := 0; i < actors/2; i++ {
			k.Spawn("sleeper", func(a *Actor) {
				defer blockingDefer(a)
				if a.ID() == actors/2 {
					k.Post(Action{Delay: 10.5}, func() { panic(errKernelBoom) })
				}
				for {
					a.Sleep(1)
				}
			})
		}
	}
	var err error
	panicked := func() (r any) {
		defer func() { r = recover() }()
		err = k.Run()
		return nil
	}()
	if how == "kernel-panic" {
		if panicked != errKernelBoom {
			t.Fatalf("Run panicked with %v (error %v), want the callback's own value", panicked, err)
		}
	} else if panicked != nil || err == nil {
		t.Fatalf("%s run returned %v and panicked with %v, want an error", how, err, panicked)
	}
	if len(k.actors) != actors {
		t.Fatalf("%s: %d actors spawned, want %d", how, len(k.actors), actors)
	}
	for _, a := range k.actors {
		if !a.done {
			t.Fatalf("%s: actor %d %q not released", how, a.id, a.name)
		}
	}
}

// TestNoGoroutineLeaksAfterFailedRun asserts that Run releases every
// parked actor goroutine when it fails, on each failure path: an actor
// panic, a deadlock, a watchdog abort and a panic in kernel context.
// Each leaked goroutine would pin its kernel and everything the actors
// reference.
func TestNoGoroutineLeaksAfterFailedRun(t *testing.T) {
	for _, how := range []string{"panic", "deadlock", "watchdog", "kernel-panic"} {
		t.Run(how, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for i := 0; i < 20; i++ {
				failingRun(t, how)
			}
			// Give finished goroutines a moment to unwind.
			deadline := time.Now().Add(2 * time.Second)
			for time.Now().Before(deadline) {
				if runtime.NumGoroutine() <= before+2 {
					return
				}
				runtime.Gosched()
				time.Sleep(10 * time.Millisecond)
			}
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		})
	}
}
