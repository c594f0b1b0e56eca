package section

import (
	"sort"
	"strings"

	"repro/internal/expr"
)

// Set is a collection of sections, possibly over several arrays. The same
// Set type serves both MAY roles (read sets, Kill) and MUST roles (write
// sets, Gen); the caller picks MAY or MUST operations accordingly.
type Set struct {
	secs []*Section
}

// NewSet builds a set from sections.
func NewSet(secs ...*Section) *Set {
	s := &Set{}
	for _, sec := range secs {
		if sec != nil {
			s.secs = append(s.secs, sec.Clone())
		}
	}
	return s
}

// Empty reports whether the set has no sections.
func (s *Set) Empty() bool { return s == nil || len(s.secs) == 0 }

// Sections returns the sections in deterministic (string) order.
func (s *Set) Sections() []*Section {
	if s == nil {
		return nil
	}
	out := append([]*Section(nil), s.secs...)
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

// Arrays returns the sorted distinct array names in the set.
func (s *Set) Arrays() []string {
	if s == nil {
		return nil
	}
	seen := map[string]bool{}
	var names []string
	for _, sec := range s.secs {
		if !seen[sec.Array] {
			seen[sec.Array] = true
			names = append(names, sec.Array)
		}
	}
	sort.Strings(names)
	return names
}

// Of returns the sections of the given array.
func (s *Set) Of(array string) []*Section {
	if s == nil {
		return nil
	}
	var out []*Section
	for _, sec := range s.secs {
		if sec.Array == array {
			out = append(out, sec)
		}
	}
	return out
}

// Clone returns a deep-enough copy (sections are immutable by convention).
func (s *Set) Clone() *Set {
	if s == nil {
		return &Set{}
	}
	return &Set{secs: append([]*Section(nil), s.secs...)}
}

// Without returns a copy of the set minus the sections drop reports,
// keeping the order of the rest.
func (s *Set) Without(drop func(*Section) bool) *Set {
	out := &Set{}
	if s != nil {
		for _, sec := range s.secs {
			if !drop(sec) {
				out.secs = append(out.secs, sec)
			}
		}
	}
	return out
}

// AddMay unions sec into the set as a MAY approximation: it merges with an
// existing section of the same array via the rectangular hull when the hull
// does not lose boundedness (an unprovable bound order would degrade the
// hull to unbounded), and otherwise keeps the sections separate — a list of
// sections is still an exact union.
func (s *Set) AddMay(sec *Section, a expr.Assumptions) {
	if sec == nil {
		return
	}
	for i, old := range s.secs {
		if old.Array != sec.Array || len(old.Dims) != len(sec.Dims) {
			continue
		}
		u := old.UnionMay(sec, a)
		if u == nil {
			continue
		}
		lossless := true
		for d := range u.Dims {
			if u.Dims[d].Lo == nil && (old.Dims[d].Lo != nil || sec.Dims[d].Lo != nil) {
				lossless = false
				break
			}
			if u.Dims[d].Hi == nil && (old.Dims[d].Hi != nil || sec.Dims[d].Hi != nil) {
				lossless = false
				break
			}
		}
		if lossless {
			s.secs[i] = u
			return
		}
	}
	s.secs = append(s.secs, sec.Clone())
}

// AddMust unions sec into the set as a MUST approximation: it merges with
// an existing section only when the exact union is provable, keeps the
// containing one, and otherwise appends (the set stays an under-
// approximation because each member individually is MUST).
func (s *Set) AddMust(sec *Section, a expr.Assumptions) {
	if sec == nil {
		return
	}
	for i, old := range s.secs {
		if old.Array == sec.Array {
			if u := old.UnionMust(sec, a); u != nil {
				s.secs[i] = u
				return
			}
		}
	}
	s.secs = append(s.secs, sec.Clone())
}

// UnionMay merges all sections of o into s (MAY).
func (s *Set) UnionMay(o *Set, a expr.Assumptions) {
	if o == nil {
		return
	}
	for _, sec := range o.secs {
		s.AddMay(sec, a)
	}
}

// UnionMust merges all sections of o into s (MUST).
func (s *Set) UnionMust(o *Set, a expr.Assumptions) {
	if o == nil {
		return
	}
	for _, sec := range o.secs {
		s.AddMust(sec, a)
	}
}

// CoveredBy conservatively proves that every section of s is contained in
// some single section of cover.
func (s *Set) CoveredBy(cover *Set, a expr.Assumptions) bool {
	if s.Empty() {
		return true
	}
	if cover == nil {
		return false
	}
	for _, sec := range s.secs {
		ok := false
		for _, c := range cover.secs {
			if c.Contains(sec, a) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// SubtractMay removes cover from every section of s (over-approximate
// remainder) and drops provably empty results.
func (s *Set) SubtractMay(cover *Set, a expr.Assumptions) *Set {
	if s.Empty() {
		return &Set{}
	}
	out := &Set{}
	for _, sec := range s.secs {
		rem := sec.Clone()
		for _, c := range cover.Sections() {
			if rem == nil {
				break
			}
			rem = rem.SubtractMay(c, a)
		}
		if rem != nil && !rem.ProvablyEmpty(a) {
			out.secs = append(out.secs, rem)
		}
	}
	return out
}

// SubtractMust removes cover from every section of s keeping the result an
// under-approximation (sections whose relationship to the cover cannot be
// proven are dropped entirely).
func (s *Set) SubtractMust(cover *Set, a expr.Assumptions) *Set {
	if s.Empty() {
		return &Set{}
	}
	out := &Set{}
	for _, sec := range s.secs {
		rem := sec.Clone()
		for _, c := range cover.Sections() {
			if rem == nil {
				break
			}
			rem = rem.SubtractMust(c, a)
		}
		if rem != nil && !rem.ProvablyEmpty(a) {
			out.secs = append(out.secs, rem)
		}
	}
	return out
}

// IntersectMust returns an under-approximation of s ∩ o: the sections of s
// that are provably contained in some section of o, plus the sections of o
// provably contained in some section of s.
func (s *Set) IntersectMust(o *Set, a expr.Assumptions) *Set {
	out := &Set{}
	if s.Empty() || o.Empty() {
		return out
	}
	for _, x := range s.secs {
		for _, y := range o.secs {
			if y.Contains(x, a) {
				out.AddMust(x, a)
				break
			}
		}
	}
	for _, y := range o.secs {
		for _, x := range s.secs {
			if x.Contains(y, a) {
				out.AddMust(y, a)
				break
			}
		}
	}
	return out
}

// IntersectsWith conservatively tests whether s and o may overlap: it
// returns false only when every pair of sections is provably disjoint.
func (s *Set) IntersectsWith(o *Set, a expr.Assumptions) bool {
	if s.Empty() || o.Empty() {
		return false
	}
	for _, x := range s.secs {
		for _, y := range o.secs {
			if !x.Disjoint(y, a) {
				return true
			}
		}
	}
	return false
}

func (s *Set) String() string {
	if s.Empty() {
		return "{}"
	}
	parts := make([]string, 0, len(s.secs))
	for _, sec := range s.Sections() {
		parts = append(parts, sec.String())
	}
	return "{" + strings.Join(parts, ", ") + "}"
}
