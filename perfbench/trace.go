package main

import "time"

// tracer records a span for every call the harness makes into a layer's
// public API during a traced window: its host wall time and the virtual
// time the calling task spent in it. Spans stay in memory until the run
// reports. A nil *tracer records nothing, which is how untraced runs call
// it.
//
// Host time is wall time across the call, so a call that waits in virtual
// time for another task (the sim scheduler hands off between goroutines)
// includes the host time the other tasks ran meanwhile.
type tracer struct {
	host [numCalls][]int64 // ns
	sim  [numCalls][]int64 // virtual ns
}

// start returns the host time a span begins, or the zero time untraced.
func (tr *tracer) start() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}

// end closes a span opened by start.
func (tr *tracer) end(call int, began time.Time, simNs int64) {
	if tr == nil {
		return
	}
	tr.host[call] = append(tr.host[call], int64(time.Since(began)))
	tr.sim[call] = append(tr.sim[call], simNs)
}

// merge appends other's spans to tr.
func (tr *tracer) merge(other *tracer) {
	for c := range tr.host {
		tr.host[c] = append(tr.host[c], other.host[c]...)
		tr.sim[c] = append(tr.sim[c], other.sim[c]...)
	}
}

// metrics returns the span percentiles keyed by per-layer metric name,
// and the sample count behind each call's percentiles.
func (tr *tracer) metrics() (map[string]float64, map[string]int) {
	m := make(map[string]float64)
	n := make(map[string]int)
	for c, name := range callNames {
		host, sim := sortedCopy(tr.host[c]), sortedCopy(tr.sim[c])
		p := "call." + name
		m[p+".host_ns_p50"] = float64(percentile(host, 50))
		m[p+".host_ns_p99"] = float64(percentile(host, 99))
		m[p+".sim_ms_p50"] = float64(percentile(sim, 50)) / 1e6
		m[p+".sim_ms_p999"] = float64(percentile(sim, 99.9)) / 1e6
		n[name] = len(host)
	}
	return m, n
}
