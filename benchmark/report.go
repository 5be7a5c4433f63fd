package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
)

var className = [2]string{"primary", "secondary"}

// shortClasses names the classes whose latency rests on fewer samples than
// the workload's floor.
func (w workloadDef) shortClasses(lat [2][]float64) []string {
	var short []string
	for c, xs := range lat {
		if len(xs) < w.floor[c] {
			short = append(short, fmt.Sprintf("%s rests on %d samples, below the floor of %d", className[c], len(xs), w.floor[c]))
		}
	}
	return short
}

// report turns what the run measured into the metrics of its mode: the
// end-to-end set for an untraced run, the per-layer set for a traced one.
func (r *run) report(w workloadDef) (*result, error) {
	log := r.cfg.logf
	ms := func(v float64) string { return fmt.Sprintf("%.3f", v) }
	for c, what := range [2]string{w.primary, w.secondary} {
		xs := r.lat[c]
		log("%s = %s: n=%d typical=%s p50=%s p95=%s max=%s ms", className[c], what, len(xs), ms(typical(xs)), ms(median(xs)), ms(quantile(xs, 0.95)), ms(quantile(xs, 1)))
	}
	log("timed span %.2fs: %d ops, %.2f MB/s of user payload; set-ups %.3fs; reopen (core.Load) %.3fs",
		r.timedWall.Seconds(), r.timedOps, float64(r.payload)/1e6/r.timedWall.Seconds(), r.setupTimes, r.loadTime.Seconds())
	log("phases: %s", strings.Join(r.laps, ", "))
	if d := math.Abs(r.calib[1]-r.calib[0]) / r.calib[0]; d > 0.05 {
		log("warning: host calibration moved by %.1f %% across the timed span (%.2f ms before, %.2f ms after): the box changed speed under the run", 100*d, r.calib[0], r.calib[1])
	}
	if r.stats.RepairWrites != 0 {
		log("warning: kvstore.repair_writes = %d: replicas diverged during the run", r.stats.RepairWrites)
	}
	if r.trips != 0 {
		log("warning: %d circuit-breaker trips: a storage node was judged unreachable during the run", r.trips)
	}
	if r.failed > 0 {
		log("FAILED: %d of %d operations; first: %v", r.failed, r.attempted, r.firstErr)
	}

	// A full-scale untraced run that took too few samples has no result.
	if r.cfg.scale >= 1 && r.rec == nil {
		if short := w.shortClasses(r.lat); len(short) > 0 {
			return nil, errors.New(strings.Join(short, "; "))
		}
	}

	user := float64(r.userBytes)
	var m *metricSet
	if r.rec == nil {
		m = newMetricSet(endToEnd)
		m.set("setup_s", median(r.setupTimes))
		m.set("chunks_per_read", float64(r.spans[1])/float64(r.spans[0]))
		m.set("stored_bytes_per_user_byte", float64(r.stats.BytesStored)/user)
		m.set("disk_bytes_per_user_byte", float64(r.stats.DiskBytes)/user)
	} else {
		m = newMetricSet(perLayer)
		lt := &r.layers
		for c, name := range className {
			aboveHTTP, aboveCore, aboveKV := typical(lt.aboveHTTP[c]), typical(lt.aboveCore[c]), typical(lt.aboveKV[c])
			m.set("client."+name+"_ms", typical(r.lat[c]))
			m.set("client."+name+"_self_ms", typical(lt.client[c]))
			m.set("server."+name+"_self_ms", aboveHTTP-aboveCore)
			m.set("core."+name+"_self_ms", aboveCore-aboveKV)
			m.set("kvstore."+name+"_self_ms", aboveKV)
			m.set("remote."+name+"_self_ms", typical(lt.remote[c]))
			m.set("lsm."+name+"_self_ms", typical(lt.lsm[c]))
			m.set("trace."+name+"_ms", typical(r.latTraced[c]))
			m.set("client."+name+"_p95_ms", quantile(r.lat[c], 0.95))
			log("%s by layer (ms): client %s | server %s | core %s | kvstore %s | remote %s | lsm %s | traced typical %s",
				name, ms(typical(lt.client[c])), ms(aboveHTTP-aboveCore), ms(aboveCore-aboveKV), ms(aboveKV),
				ms(typical(lt.remote[c])), ms(typical(lt.lsm[c])), ms(typical(r.latTraced[c])))
		}
		untraced := typical(r.lat[classPrimary])
		m.set("trace.overhead_pct", 100*(typical(r.latTraced[classPrimary])-untraced)/untraced)
		m.set("client.stall_pct", stallShare(r.lat[0], r.lat[1]))
		m.set("client.payload_mb_per_s", float64(r.payload)/1e6/r.timedWall.Seconds())
		m.set("server.http_bytes_per_payload_byte", float64(lt.httpBytes)/float64(lt.httpPayload))
		m.set("core.wasted_chunk_pct", 100*float64(r.reads.wasted)/float64(r.reads.span))
		m.set("core.fetched_bytes_per_payload_byte", float64(r.reads.bytesRead)/float64(r.reads.payload))
		m.set("core.load_ms", float64(r.loadTime.Microseconds())/1e3)
		m.set("kvstore.requests_per_op", float64(r.kvRequests)/float64(r.timedOps))
		m.set("kvstore.bytes_put_per_user_byte", float64(r.stats.BytesPut)/user)
		m.set("kvstore.repair_writes", float64(r.stats.RepairWrites))
		m.set("kvstore.breaker_trips", float64(r.trips))
		ops := float64(lt.ops)
		m.set("remote.roundtrips_per_op", float64(lt.remoteCalls)/ops)
		m.set("remote.value_bytes_per_op", float64(lt.remoteBytes)/ops)
		m.set("lsm.calls_per_op", float64(lt.lsmCalls)/ops)
		m.set("lsm.sync_writes_per_commit", float64(lt.lsmBatchPuts)/float64(lt.commitOps))
		m.set("lsm.disk_bytes_per_user_byte", float64(r.stats.DiskBytes)/user)
		m.set("lsm.live_ratio", r.stats.LiveRatio)
		m.set("host.calib_ms", (r.calib[0]+r.calib[1])/2)
		m.set("host.cpu_s_per_wall_s", r.host.cpu.Seconds()/r.host.wall.Seconds())
		m.set("host.alloc_mb_per_op", float64(r.host.allocB)/1e6/float64(r.timedOps))
		m.set("host.gc_pause_ms", float64(r.host.gcNs)/1e6)
	}
	metrics, err := m.result()
	if err != nil {
		return nil, err
	}
	return &result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: metrics}, nil
}
