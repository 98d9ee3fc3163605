package obs

import (
	"slices"
	"strings"
)

// GaugeFamily is a dense family of gauges for components that exist once
// per link rather than once per node: fiber links and HUBs, of which a
// datacenter fabric builds hundreds of thousands. A family has one layer
// and a fixed list of names; each component joins it once per registry
// under its scope, and the snapshot reads member m's value for name i as
// read(m, i). Joining appends the scope and the member to one slice, so a
// link costs nothing to register beyond that slot — no closure and no
// per-gauge registry entry. At snapshot time the family sorts its members
// by scope once, and that one order serves all of its names.
type GaugeFamily[T any] struct {
	layer  Layer
	names  []string
	byName []int // indices into names, in name order
	read   func(m T, name int) uint64
}

// NewGaugeFamily declares a family: its layer, its gauge names, and how
// to read member m's value for names[i]. Declare each family once, as a
// package-level variable; every registry keeps its own members.
func NewGaugeFamily[T any](layer Layer, names []string, read func(m T, name int) uint64) *GaugeFamily[T] {
	byName := make([]int, len(names))
	for i := range byName {
		byName[i] = i
	}
	slices.SortFunc(byName, func(a, b int) int { return strings.Compare(names[a], names[b]) })
	return &GaugeFamily[T]{layer: layer, names: names, byName: byName, read: read}
}

// Join adds m to r's members of the family under scope. Members that join
// under one scope sum in the snapshot. A nil registry ignores the call.
func (f *GaugeFamily[T]) Join(r *Registry, scope string, m T) {
	if r == nil {
		return
	}
	var fm *familyMembers[T]
	for _, x := range r.families {
		if y, ok := x.(*familyMembers[T]); ok && y.f == f {
			fm = y
			break
		}
	}
	if fm == nil {
		fm = &familyMembers[T]{f: f}
		r.families = append(r.families, fm)
	}
	fm.members = append(fm.members, member[T]{scope, m})
}

// family is one registry's members of one GaugeFamily, as the merge reads
// them.
type family interface {
	spec() (layer Layer, names []string, byName []int)
	size() int // members
	// sort puts the members in scope order, unless none joined since the
	// last call.
	sort()
	scope(j int) string
	// read stores every member's values, name-major: member j's value for
	// names[i] goes to vals[i*size()+j]. It visits each member once.
	read(vals []uint64)
}

type member[T any] struct {
	scope string
	m     T
}

type familyMembers[T any] struct {
	f       *GaugeFamily[T]
	members []member[T]
	sorted  int // len(members) at the last sort; members is in scope order while it still matches
}

func (fm *familyMembers[T]) spec() (Layer, []string, []int) {
	return fm.f.layer, fm.f.names, fm.f.byName
}

func (fm *familyMembers[T]) size() int { return len(fm.members) }

// sort also copies the scopes, in their new order, into one string: the
// merge compares the scopes of neighbouring members, and reading them
// from consecutive bytes rather than from wherever each was formatted
// halves BenchmarkMergeSnapshots.
func (fm *familyMembers[T]) sort() {
	if fm.sorted == len(fm.members) {
		return
	}
	slices.SortFunc(fm.members, func(a, b member[T]) int { return strings.Compare(a.scope, b.scope) })
	var b strings.Builder
	n := 0
	for _, m := range fm.members {
		n += len(m.scope)
	}
	b.Grow(n)
	for _, m := range fm.members {
		b.WriteString(m.scope)
	}
	all := b.String()
	for j := range fm.members {
		n := len(fm.members[j].scope)
		fm.members[j].scope, all = all[:n], all[n:]
	}
	fm.sorted = len(fm.members)
}

func (fm *familyMembers[T]) scope(j int) string { return fm.members[j].scope }

func (fm *familyMembers[T]) read(vals []uint64) {
	n := len(fm.members)
	for j := range fm.members {
		for i := range fm.f.names {
			vals[i*n+j] = fm.f.read(fm.members[j].m, i)
		}
	}
}
