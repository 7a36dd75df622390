package sim

import "fmt"

// BodyKind selects the process-body form a protocol runs its per-process
// algorithm in (for protocols that implement both — see internal/driver).
// It lives here because it is a shared execution knob: every runner
// offering the choice spells it the same way.
type BodyKind int

const (
	// BodyAuto (the default) picks the fastest body form the protocol
	// has: inline handlers — the scheduler invokes the process's state
	// machine directly under its execution token, zero channel
	// rendezvous, zero goroutines — where a handler port exists,
	// coroutines otherwise.
	BodyAuto BodyKind = iota
	// BodyCoroutine forces the coroutine form: one goroutine per process,
	// stepped through channel rendezvous. Kept for differential testing
	// against the handler form.
	BodyCoroutine
)

// String names the body kind.
func (b BodyKind) String() string {
	switch b {
	case BodyAuto:
		return "auto"
	case BodyCoroutine:
		return "coroutine"
	}
	return fmt.Sprintf("BodyKind(%d)", int(b))
}
