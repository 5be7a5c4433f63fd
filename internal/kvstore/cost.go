package kvstore

import "time"

// CostModel captures the network/CPU cost parameters of the backing cluster.
// RStore's design revolves around the observation (paper §2.3) that the
// number of requests to the KVS dominates retrieval cost; the model charges
// a fixed per-request overhead plus transfer and scan time. The Store prices
// each read with it on the cluster's clock, Stats.SimElapsed, and nothing
// else: the clock is the paper's figure drivers' stopwatch, so they report
// deterministic, Cassandra-shaped latencies regardless of host speed. Writes
// are not priced, and nothing above the Store carries modeled time.
//
// Defaults are calibrated against the paper's §2.3 measurement: ~100K unit
// requests took 65.42s, i.e. ≈0.65ms per request end to end.
type CostModel struct {
	// PerRequest is the fixed client+server overhead of one request
	// (round trip, coordination, row lookup).
	PerRequest time.Duration
	// Bandwidth is the sustained transfer rate in bytes/second between the
	// client and the cluster.
	Bandwidth float64
	// ScanPerByte is the client-side cost of scanning/extracting a byte of
	// a retrieved chunk (decompression and record extraction, §2.3 "the
	// overhead of ... scanning through them").
	ScanPerByte time.Duration
	// Parallelism is the number of requests the client keeps in flight for
	// parallel multi-gets (paper §2.4: chunks "are retrieved by issuing
	// queries in parallel"). 1 models a sequential client.
	Parallelism int
}

// DefaultCostModel returns the calibrated model (see package comment).
func DefaultCostModel() CostModel {
	return CostModel{
		PerRequest:  650 * time.Microsecond,
		Bandwidth:   100 << 20, // 100 MiB/s
		ScanPerByte: 2 * time.Nanosecond,
		Parallelism: 8,
	}
}

func (c CostModel) parallelism() int {
	if c.Parallelism < 1 {
		return 1
	}
	return c.Parallelism
}

// requestCost is the simulated time for one request transferring n bytes.
func (c CostModel) requestCost(n int) time.Duration {
	d := c.PerRequest
	if c.Bandwidth > 0 {
		d += time.Duration(float64(n) / c.Bandwidth * float64(time.Second))
	}
	return d
}

// scanCost is the simulated client-side time to scan n bytes.
func (c CostModel) scanCost(n int) time.Duration {
	return time.Duration(n) * c.ScanPerByte
}

// batchElapsed computes the simulated elapsed time of a batch of requests
// issued concurrently with the model's parallelism, where perNode[i] holds
// the byte sizes of the responses served by node i. Each node serves its
// requests serially (single disk/CPU lane per node), the client keeps at
// most Parallelism requests in flight, and the slower of the two constraints
// bounds the batch.
func (c CostModel) batchElapsed(perNode map[int][]int) time.Duration {
	var total time.Duration
	var slowestNode time.Duration
	reqs := 0
	for _, sizes := range perNode {
		var nodeTime time.Duration
		for _, n := range sizes {
			cost := c.requestCost(n)
			nodeTime += cost
			total += cost
			reqs++
		}
		if nodeTime > slowestNode {
			slowestNode = nodeTime
		}
	}
	if reqs == 0 {
		return 0
	}
	// The client lane constraint: total work spread over P lanes.
	lanes := time.Duration(int64(total) / int64(c.parallelism()))
	if slowestNode > lanes {
		return slowestNode
	}
	return lanes
}
