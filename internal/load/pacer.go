package load

import (
	"runtime"
	"time"
)

// openPacer is the open-loop schedule: with C clients at a global
// target rate R, client c's k-th op is due at start + (k*C + c)/R.
// This is a token bucket in disguise — a client that falls behind
// finds its next deadlines in the past and issues back-to-back until
// it has drained its backlog — and it is the coordinated-omission
// fix: latency is measured from the *scheduled* time, so an op the
// service made us queue behind a slow response is charged its full
// queueing delay instead of silently shifting the schedule.
type openPacer struct {
	start   time.Time
	client  int
	clients int
	perOp   time.Duration // C/R, the stride between one client's ops
}

func newOpenPacer(start time.Time, client, clients int, rate float64) *openPacer {
	return &openPacer{
		start:   start,
		client:  client,
		clients: clients,
		perOp:   time.Duration(float64(clients) / rate * float64(time.Second)),
	}
}

func (p *openPacer) due(k int) time.Time {
	offset := time.Duration(float64(p.client) / float64(p.clients) * float64(p.perOp))
	return p.start.Add(offset + time.Duration(k)*p.perOp)
}

// spinSlack is how early sleepUntil wakes from time.Sleep to finish
// the wait in a yield loop: timer overshoot (50us-1ms depending on
// the kernel) would otherwise leak into every open-loop latency,
// since those are measured from the scheduled time. The yield loop
// cedes the processor each iteration, so a busy service still runs.
const spinSlack = 100 * time.Microsecond

// sleepUntil sleeps until the deadline if it is in the future.
func sleepUntil(t time.Time) {
	if d := time.Until(t) - spinSlack; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}
