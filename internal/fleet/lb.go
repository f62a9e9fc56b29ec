package fleet

import "net/http"

// Policy names the load balancer's routing policy. Round-robin is the only
// one: every replica reads one cache tier and serves the same bytes and
// ETags at the same upstream cost, so which replica answers does not
// matter, and the replicas share one process, so no replica is busier than
// another for a router to steer around.
type Policy string

// PolicyRoundRobin cycles requests over live replicas.
const PolicyRoundRobin Policy = "round_robin"

// fleetReplicaHeaderKey names the replica that served a response, in
// canonical MIME form (wire: X-Ooddash-Replica).
const fleetReplicaHeaderKey = "X-Ooddash-Replica"

// ServeHTTP is the load balancer: starting at the round-robin cursor, it
// skips unhealthy replicas (a killed replica models a refused connection —
// passive failover retries the next one, so clients never see the corpse)
// and proxies to the first live replica.
func (fl *Fleet) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	reps := fl.replicaList()
	start := int(fl.rr.Add(1) - 1)
	for i := range reps {
		rep := reps[(start+i)%len(reps)]
		if !rep.healthy() {
			continue
		}
		if i > 0 {
			fl.met.lbFailovers.Add(int64(i))
		}
		fl.met.lbRequests.With(rep.id).Inc()
		w.Header()[fleetReplicaHeaderKey] = []string{rep.id}
		rep.srv.ServeHTTP(w, r)
		return
	}
	http.Error(w, "fleet: no live replicas", http.StatusServiceUnavailable)
}
