//go:build !go1.23

package sim

// handoff is the coroutine switch under a proc for toolchains without
// iter.Pull: the resume/yield channel pair, two scheduler round trips
// per wake/park. These are the lines kernel.go held before the handoff
// became a primitive, moved here, not a second design; the file goes
// when go.mod's go line may reach 1.23.
type handoff struct {
	resume chan struct{}
	yield  chan struct{}
}

// start creates the coroutine: one p.run per wake until release.
func (p *proc) start() {
	p.handoff = handoff{resume: make(chan struct{}), yield: make(chan struct{})}
	go p.loop()
}

// loop is the pooled goroutine: parked on resume between uses.
func (p *proc) loop() {
	for range p.resume {
		p.run()
		p.yield <- struct{}{}
	}
}

// wake switches from Kernel.Run into the process until it parks or its
// body returns. A panic in the body surfaces on the process goroutine.
func (p *proc) wake() {
	p.resume <- struct{}{}
	<-p.yield
}

// park switches from the process (inside Kernel.Sleep) back to Run.
func (p *proc) park() {
	p.yield <- struct{}{}
	<-p.resume
}

// release ends a parked coroutine's goroutine.
func (p *proc) release() {
	close(p.resume)
}
