package matcher

import (
	"bluedove/internal/core"
	"bluedove/internal/seda"
)

// forwardItem is one unit of work for a dimension stage: either a single
// publication that arrived in one Forward frame or a batch that arrived in
// one ForwardBatch frame, plus the forwarding dispatcher (acked back to it
// by the persistence extension). Both are matched as a batch.
type forwardItem struct {
	msg  *core.Message   // single publication; nil on the batched path
	msgs []*core.Message // batched publications; nil on the single path
	from core.NodeID
}

// count returns the number of publications the item carries.
func (it forwardItem) count() int64 {
	if it.msgs != nil {
		return int64(len(it.msgs))
	}
	return 1
}

// sedaStage is the per-dimension matching stage: a bounded SEDA queue of
// forwarded publications (single or batched).
type sedaStage = seda.Stage[forwardItem]

// newSedaStage builds and starts one dimension stage with the seda default of
// one worker, the paper's one core per dimension. Items are weighted by
// the number of publications they carry so λ, μ and queue lengths stay in
// per-message units under batching.
func newSedaStage(name string, depth int, now func() int64, fn func(forwardItem)) *sedaStage {
	return seda.New(seda.Config[forwardItem]{
		Name: name, Depth: depth, Now: now,
		Weight: forwardItem.count,
	}, fn)
}
