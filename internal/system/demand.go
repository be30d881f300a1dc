package system

import (
	"cmp"
	"fmt"
	"slices"
)

// TypeNeed is one entry of a demand vector: N units of resource type Type.
type TypeNeed struct {
	Type int
	N    int
}

// Demand is a task's lowered demand: one entry per resource type, sorted by
// type, every count positive. It is the only demand representation inside
// the system and sched layers — the scalar Need/Type pair and the typed
// Needs vector are two spellings of it at the API edge, and Lower is the one
// place that reads them. A homogeneous task is the one-commodity case of
// §III-D's multicommodity network.
type Demand []TypeNeed

// Lower turns a validated task into its demand vector. A typed task keeps
// its Needs vector. A scalar task is the one-type vector {Type: max(Need,
// 1)} on a fabric with configured types; on an untyped fabric (types nil)
// every resource is type 0, so it lowers to {0: max(Need, 1)} — the
// disciplines that ignore types (MaxFlow, MinCost, TokenArch) already
// treated it so, and Hetero now agrees with them.
func Lower(t Task, types []int) Demand {
	if t.Needs == nil {
		n, ty := max(t.Need, 1), 0
		if types != nil {
			ty = t.Type
		}
		return Demand{{Type: ty, N: n}}
	}
	d := make(Demand, 0, len(t.Needs))
	for ty, n := range t.Needs {
		d = append(d, TypeNeed{Type: ty, N: n})
	}
	slices.SortFunc(d, func(a, b TypeNeed) int { return cmp.Compare(a.Type, b.Type) })
	return d
}

// Total reports the demand's unit count across all types.
func (d Demand) Total() int {
	n := 0
	for _, e := range d {
		n += e.N
	}
	return n
}

// Of reports the demand for one type (0 when the vector omits it).
func (d Demand) Of(ty int) int {
	for _, e := range d {
		if e.Type == ty {
			return e.N
		}
	}
	return 0
}

// Plus returns the entry-wise sum of two demand vectors — a gang's
// combined demand, since its members hold their units together.
func (d Demand) Plus(o Demand) Demand {
	out := make(Demand, 0, len(d)+len(o))
	i, j := 0, 0
	for i < len(d) && j < len(o) {
		switch {
		case d[i].Type < o[j].Type:
			out = append(out, d[i])
			i++
		case d[i].Type > o[j].Type:
			out = append(out, o[j])
			j++
		default:
			out = append(out, TypeNeed{Type: d[i].Type, N: d[i].N + o[j].N})
			i++
			j++
		}
	}
	out = append(out, d[i:]...)
	return append(out, o[j:]...)
}

// Check is the census check: nil when every entry fits the usable-by-type
// census, otherwise an error wrapping ErrUnsatisfiable that names the first
// short type, its need and its usable count. On a healthy fabric the usable
// census equals the configured one, so the check covers both the static
// "more than the fabric stocks" case and degraded capacity; a type the
// fabric never stocked has a zero entry.
func (d Demand) Check(usable map[int]int) error {
	for _, e := range d {
		if have := usable[e.Type]; e.N > have {
			return fmt.Errorf("needs %d resources of type %d, fabric has %d usable: %w",
				e.N, e.Type, have, ErrUnsatisfiable)
		}
	}
	return nil
}
