package agent

import (
	"deepflow/internal/profiling"
	"deepflow/internal/selfmon"
	"deepflow/internal/trace"
	"deepflow/internal/transport"
)

// BatchSink receives the agent's output: each flush window accumulates in a
// transport.Batch and ships as a single encoded payload. The DeepFlow
// server implements it (Server.IngestBatch).
type BatchSink interface {
	IngestBatch([]byte) error
}

// batchShipper buffers one flush window of output and ships it as one
// wire-encoded batch (the paper's collection plane: compact int-tagged
// rows, batched like a ClickHouse insert).
type batchShipper struct {
	sink BatchSink
	b    transport.Batch
	seq  uint64

	// Selfmon handles (nil until instrument wires them).
	shipped *selfmon.Counter
	bytes   *selfmon.Counter
	errors  *selfmon.Counter
}

func (bs *batchShipper) span(sp *trace.Span)         { bs.b.Spans = append(bs.b.Spans, sp) }
func (bs *batchShipper) flow(f transport.FlowSample) { bs.b.Flows = append(bs.b.Flows, f) }
func (bs *batchShipper) profile(ps profiling.Sample) { bs.b.Profiles = append(bs.b.Profiles, ps) }

// ship encodes and sends the buffered window; host stamps the batch origin.
func (bs *batchShipper) ship(host string) {
	if bs.b.Empty() {
		return
	}
	bs.seq++
	bs.b.Host, bs.b.Seq = host, bs.seq
	data := transport.Encode(&bs.b)
	if err := bs.sink.IngestBatch(data); err != nil {
		bs.errors.Inc()
	} else {
		bs.shipped.Inc()
		bs.bytes.Add(uint64(len(data)))
	}
	bs.b.Reset()
}
