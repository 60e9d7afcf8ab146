//go:build go1.23

package sim

import "iter"

// handoff is the coroutine switch under a proc, built on iter.Pull: wake
// and park are runtime coroswitches — a direct goroutine-to-goroutine
// jump on the calling thread that never enters the run queue, never
// wakes an idle P and never migrates. next/yield carry no value; the
// pair only moves control. The switch is a synchronization point for
// the race detector, like the channel pair it replaces.
type handoff struct {
	next  func() (struct{}, bool)
	yield func(struct{}) bool
	stop  func()
}

// start creates the coroutine: one p.run per wake until release.
func (p *proc) start() {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		for {
			p.run()
			if !yield(struct{}{}) {
				return
			}
		}
	})
}

// wake switches from Kernel.Run into the process until it parks or its
// body returns. A panic in the body surfaces here, in Run's caller.
func (p *proc) wake() { p.next() }

// park switches from the process (inside Kernel.Sleep) back to Run.
func (p *proc) park() { p.yield(struct{}{}) }

// release ends a parked coroutine's goroutine.
func (p *proc) release() { p.stop() }
