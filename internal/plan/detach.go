package plan

import "repro/internal/query"

// Detach returns a copy of the plan tree that shares no memory with the
// session that built it. The optimizer interns join and sort nodes in a
// session Arena whose slabs link to one another through Left/Right, so a
// plan root kept in a cache would keep the whole search reachable; the copy
// holds only the plan's own O(n) nodes and predicate lists, allocated in a
// handful of compact slices. The copy is structurally identical: Key,
// Explain, costs and estimates all match the original. Size distributions
// and scan filters are immutable and stay shared.
func Detach(n Node) Node {
	if n == nil {
		return nil
	}
	var d detacher
	Walk(n, func(m Node) {
		switch v := m.(type) {
		case *Scan:
			d.scans++
		case *Join:
			d.joins++
			d.preds += len(v.Preds)
		case *Sort:
			d.sorts++
		case *Aggregate:
			d.aggs++
		}
	})
	d.scanBuf = make([]Scan, 0, d.scans)
	d.joinBuf = make([]Join, 0, d.joins)
	d.sortBuf = make([]Sort, 0, d.sorts)
	d.aggBuf = make([]Aggregate, 0, d.aggs)
	d.predBuf = make([]query.JoinPred, 0, d.preds)
	return d.copy(n)
}

// detacher copies a tree into pre-sized backing slices.
type detacher struct {
	scans, joins, sorts, aggs, preds int

	scanBuf []Scan
	joinBuf []Join
	sortBuf []Sort
	aggBuf  []Aggregate
	predBuf []query.JoinPred
}

func (d *detacher) copy(n Node) Node {
	switch v := n.(type) {
	case *Scan:
		d.scanBuf = append(d.scanBuf, *v)
		s := &d.scanBuf[len(d.scanBuf)-1]
		s.aid = 0
		return s
	case *Join:
		left, right := d.copy(v.Left), d.copy(v.Right)
		d.joinBuf = append(d.joinBuf, *v)
		j := &d.joinBuf[len(d.joinBuf)-1]
		j.Left, j.Right, j.aid = left, right, 0
		if len(v.Preds) > 0 {
			start := len(d.predBuf)
			d.predBuf = append(d.predBuf, v.Preds...)
			j.Preds = d.predBuf[start:len(d.predBuf):len(d.predBuf)]
		}
		return j
	case *Sort:
		input := d.copy(v.Input)
		d.sortBuf = append(d.sortBuf, *v)
		s := &d.sortBuf[len(d.sortBuf)-1]
		s.Input, s.aid = input, 0
		return s
	case *Aggregate:
		input := d.copy(v.Input)
		d.aggBuf = append(d.aggBuf, *v)
		a := &d.aggBuf[len(d.aggBuf)-1]
		a.Input = input
		return a
	default:
		panic("plan: unknown node type in Detach")
	}
}
