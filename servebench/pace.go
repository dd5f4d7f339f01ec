package main

import "time"

// spinLead is how long before an op is due the pacer stops sleeping and
// spins on the clock instead. A sleeping thread wakes tens of
// microseconds late on a VM, and the open loop would charge that to the
// op as latency; spinning the last stretch sends within a microsecond
// or two of the due time, for at most spinLead of CPU per op.
const spinLead = 120 * time.Microsecond

// sleepUntil blocks until t: it sleeps until spinLead before t, then
// spins.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinLead; d > 0 {
		sleep(d)
	}
	for time.Now().Before(t) {
	}
}
