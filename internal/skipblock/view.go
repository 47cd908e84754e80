package skipblock

import (
	"fmt"
	"math"
	"slices"
	"time"

	"flor.dev/flor/internal/obs"
	"flor.dev/flor/internal/tensor"
	"flor.dev/flor/internal/value"
)

// A log statement that reads a bound model or tensor whose checkpointed
// state the payload cache already holds reads it where it lies: the live
// value's tensors point at the cached payload's for the rest of that one
// statement (value.View), and the binding stays bound. No byte moves. The
// view shows exactly what the load it stands in for would write — the
// youngest binding's section, which every older one's would be overwritten
// by — and it ends before anything could tell the difference: at the end of
// the statement (Logged), and before any Sync, any Write, or any pull that
// may load a viewed name.

// viewing is one view a log statement holds.
type viewing struct {
	name string
	view *value.View
	sums []uint64 // race builds: each lent tensor's checksum when lent
}

// view tries to serve a log statement's read of name, whose live value is v
// and whose pull closure is name alone, from a view of the cached payload of
// the youngest binding carrying it, and reports whether it did. Anything it
// does not serve pulls as usual; a cache that does not hold the section
// counts nothing. A view's restore time includes its binding's directory
// read; a probe that does not view leaves that to the load that follows.
func (r *Runtime) view(name string, v value.Value) (bool, error) {
	if slices.ContainsFunc(r.views, func(w viewing) bool { return w.name == name }) {
		return true, nil // viewed earlier in this statement, and nothing has ended it
	}
	switch v.(type) {
	case *value.Model, *value.Tensor:
	default:
		return false, nil
	}
	bd, err := r.youngestCarrier(name)
	if bd == nil || err != nil {
		return false, err
	}
	t0 := time.Now()
	spanStart := r.tr.Now()
	sec, _ := bd.ck.Section(name)
	p, ok := r.cache.Lend(sec.Hash)
	if !ok {
		return false, nil
	}
	w, ok := value.NewView(v, p)
	if !ok {
		return false, nil
	}
	vw := viewing{name: name, view: w}
	if guardViews {
		vw.sums = make([]uint64, len(w.Lent))
		for i, t := range w.Lent {
			vw.sums[i] = checksum(t)
		}
	}
	r.views = append(r.views, vw)
	ns := time.Since(t0).Nanoseconds()
	st := &bd.b.stats
	st.Viewed++
	st.ViewedBytes += int64(sec.RawLen)
	st.RestoreNs += ns
	if r.tr != nil {
		r.tr.Add(obs.Span{Name: "restore", Worker: r.worker, StartNs: spanStart, DurNs: ns,
			Attrs: map[string]int64{"exec": int64(bd.key.Exec), "restored_bytes": 0, "viewed_bytes": int64(sec.RawLen)}})
	}
	return true, nil
}

// youngestCarrier returns the youngest checkpoint binding that carries name
// when it has name left to give, resolving bindings as their first load
// needs; nil when there is none.
func (r *Runtime) youngestCarrier(name string) (*binding, error) {
	for i := len(r.bound) - 1; i >= 0; i-- {
		bd := r.bound[i]
		if bd.setup != nil {
			continue
		}
		if err := r.resolve(bd); err != nil {
			return nil, err
		}
		if bd.ck.Carries(name) {
			if slices.Contains(bd.done, name) {
				return nil, nil
			}
			return bd, nil
		}
	}
	return nil, nil
}

// viewed reports whether a pull of names (nil: every name) would reach a
// name a view holds.
func (r *Runtime) viewed(names []string) bool {
	return len(r.views) > 0 && (names == nil || slices.ContainsFunc(r.views, func(w viewing) bool { return slices.Contains(names, w.name) }))
}

// unview ends every view, youngest first, handing each value its own tensors
// back. In race builds a lent tensor whose checksum moved while it was lent
// is latched as the statement's failure, which Logged returns.
func (r *Runtime) unview() {
	for i := len(r.views) - 1; i >= 0; i-- {
		w := r.views[i]
		w.view.End()
		if guardViews && r.viewErr == nil {
			for k, t := range w.view.Lent {
				if checksum(t) != w.sums[k] {
					r.viewErr = fmt.Errorf("skipblock: a log statement wrote through its view of %q, a cached checkpoint payload", w.name)
					break
				}
			}
		}
	}
	clear(r.views)
	r.views = r.views[:0]
}

// Logged implements script.Observer: the log statement is over, and so are
// its views.
func (r *Runtime) Logged() error {
	r.unview()
	err := r.viewErr
	r.viewErr = nil
	return err
}

// checksum folds a tensor's float bits, FNV-1a style, a word at a time.
func checksum(t *tensor.Tensor) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range t.Data() {
		h ^= math.Float64bits(x)
		h *= 1099511628211
	}
	return h
}
