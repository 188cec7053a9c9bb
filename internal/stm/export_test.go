package stm

// ForceLocatorPooling turns locator recycling on whatever New decided from
// GOMAXPROCS, so tests exercise reclamation under deliberate
// oversubscription. Call it before the runtime executes a transaction:
// threads maintain their reclamation pins only while the gate is on.
func ForceLocatorPooling(rt *Runtime) { rt.locPooling = true }

// EpochPinned reports whether th's reclamation pin slot is pinned.
func EpochPinned(th *Thread) bool { return th.epochSlot().Load()&pinnedBit != 0 }
