package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/listsched"
	"repro/internal/textio"
)

// http-edit: one client edits editDesigns designs. Each request of its
// seeded script is a τ-edit of 1-3 processes of one design (the
// warm-start path), an exact repeat of a design's current version (a memo
// hit unless evicted) or a brand-new design replacing one (a cold insert).
// Every block of editBlock requests holds exactly editBlockEdits τ-edits,
// editBlockRepeats repeats and one brand-new design, in seeded order, so
// the mix is the same for every seed. The client sends the script's
// editCycle requests over and over; one pass holds more distinct documents
// than service.DefaultCacheSize, so the memo evicts, and every run sends
// the same documents.
const (
	editDesigns      = 8
	editBlock        = 20
	editBlockEdits   = 12
	editBlockRepeats = 7
	editCycle        = 500
	editQualityOps   = 20 // script prefix counted by increase_pct_mean
)

var (
	editNodes = []int{60, 80, 100, 120}
	editPaths = []int{10, 12, 14, 18}
	// editOptions fixes the tabu bounds and never sets a wall-clock
	// budget, so results stay deterministic and memoizable.
	editOptions = core.Options{Strategy: "tabu", StrategyParams: listsched.StrategyParams{TabuIterations: 8, TabuNeighbors: 6}}
)

type editKind int

const (
	opEdit editKind = iota
	opRepeat
	opNew
)

type design struct {
	doc             *textio.ProblemDoc
	serial, version int
	body            []byte // encoding of the current version, nil after an edit
}

func (d *design) request(edit, quality bool) (httpReq, error) {
	if d.body == nil {
		b, err := json.Marshal(d.doc)
		if err != nil {
			return httpReq{}, err
		}
		d.body = b
	}
	return httpReq{key: fmt.Sprintf("d%d/v%d", d.serial, d.version), body: d.body, edit: edit, quality: quality}, nil
}

// editScript is the client's request script: the designs it starts from
// (sent during set-up) and the requests of one pass, with their kinds.
type editScript struct {
	initial []httpReq
	reqs    []httpReq
	kinds   []editKind
}

// newDesignDoc generates the k-th design of the script. Sizes walk the
// editNodes x editPaths grid in a fixed order, so the size mix is the same
// for every workload seed; r draws the instance.
func newDesignDoc(r *rand.Rand, k int) (*textio.ProblemDoc, error) {
	n, p := editNodes[k%len(editNodes)], editPaths[(k/len(editNodes))%len(editPaths)]
	inst, err := gen.Generate(gen.RandomConfig(r, n, p))
	if err != nil {
		return nil, err
	}
	return textio.EncodeProblem(inst.Graph, inst.Arch, editOptions), nil
}

func ordinary(doc *textio.ProblemDoc) []int {
	var idx []int
	for i, p := range doc.Processes {
		if p.Kind == "ordinary" && p.Exec > 0 {
			idx = append(idx, i)
		}
	}
	return idx
}

// newEditScript generates the designs and a script of n requests.
func newEditScript(seed int64, n int) (*editScript, error) {
	r := rand.New(rand.NewSource(mix(seed, 1000)))
	s := &editScript{}
	serials := 0
	fresh := func() (*design, error) {
		doc, err := newDesignDoc(r, serials)
		if err != nil {
			return nil, err
		}
		serials++
		return &design{doc: doc, serial: serials}, nil
	}
	designs := make([]*design, editDesigns)
	for j := range designs {
		d, err := fresh()
		if err != nil {
			return nil, err
		}
		req, err := d.request(false, true)
		if err != nil {
			return nil, err
		}
		designs[j], s.initial = d, append(s.initial, req)
	}
	var block []editKind
	for len(s.reqs) < n {
		if len(block) == 0 {
			for i := 0; i < editBlock; i++ {
				switch {
				case i < editBlockEdits:
					block = append(block, opEdit)
				case i < editBlockEdits+editBlockRepeats:
					block = append(block, opRepeat)
				default:
					block = append(block, opNew)
				}
			}
			r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		}
		kind, j := block[0], r.Intn(editDesigns)
		block = block[1:]
		d := designs[j]
		switch kind {
		case opEdit:
			cand := ordinary(d.doc)
			for _, k := range r.Perm(len(cand))[:1+r.Intn(3)] {
				delta := int64(1 + r.Intn(5))
				if r.Intn(2) == 0 {
					delta = -delta
				}
				p := &d.doc.Processes[cand[k]]
				p.Exec = max(1, p.Exec+delta)
			}
			d.version++
			d.body = nil
		case opNew:
			nd, err := fresh()
			if err != nil {
				return nil, err
			}
			d, designs[j] = nd, nd
		}
		req, err := d.request(kind == opEdit, len(s.reqs) < editQualityOps)
		if err != nil {
			return nil, err
		}
		s.reqs, s.kinds = append(s.reqs, req), append(s.kinds, kind)
	}
	return s, nil
}

func setupHTTPEdit(ctx context.Context, seed int64, _ time.Duration) (instance, error) {
	script, err := newEditScript(seed, editCycle)
	if err != nil {
		return nil, err
	}
	pos := 0
	h, err := newHTTPInst(func() httpReq {
		req := script.reqs[pos%len(script.reqs)]
		pos++
		return req
	})
	if err != nil {
		return nil, err
	}
	h.cycleLen = len(script.reqs)
	for _, req := range script.initial {
		if err := h.send(ctx, req); err != nil {
			h.close()
			return nil, fmt.Errorf("pre-warming %s: %w", req.key, err)
		}
	}
	return h, nil
}
