package section

import "strings"

// Set is a collection of sections, possibly over several arrays, kept in
// the order they were added. The same Set type serves both MAY roles (read
// sets, Kill) and MUST roles (write sets, Gen); the caller picks MAY or
// MUST operations accordingly.
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

// Sections returns the set's own slice of sections, in the order they
// were added. Callers only read it.
func (s *Set) Sections() []*Section {
	if s == nil {
		return nil
	}
	return s.secs
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
func (s *Set) AddMay(sec *Section) {
	if sec == nil {
		return
	}
	for i, old := range s.secs {
		if old.Array != sec.Array || len(old.Dims) != len(sec.Dims) {
			continue
		}
		u := old.UnionMay(sec)
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
func (s *Set) AddMust(sec *Section) {
	if sec == nil {
		return
	}
	for i, old := range s.secs {
		if old.Array == sec.Array {
			if u := old.UnionMust(sec); u != nil {
				s.secs[i] = u
				return
			}
		}
	}
	s.secs = append(s.secs, sec.Clone())
}

// UnionMay merges all sections of o into s (MAY).
func (s *Set) UnionMay(o *Set) {
	if o == nil {
		return
	}
	for _, sec := range o.secs {
		s.AddMay(sec)
	}
}

// UnionMust merges all sections of o into s (MUST).
func (s *Set) UnionMust(o *Set) {
	if o == nil {
		return
	}
	for _, sec := range o.secs {
		s.AddMust(sec)
	}
}

// SubtractMay removes cover from every section of s (over-approximate
// remainder) and drops provably empty results.
func (s *Set) SubtractMay(cover *Set) *Set {
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
			rem = rem.SubtractMay(c)
		}
		if rem != nil && !rem.ProvablyEmpty() {
			out.secs = append(out.secs, rem)
		}
	}
	return out
}

// SubtractMust removes cover from every section of s keeping the result an
// under-approximation (sections whose relationship to the cover cannot be
// proven are dropped entirely).
func (s *Set) SubtractMust(cover *Set) *Set {
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
			rem = rem.SubtractMust(c)
		}
		if rem != nil && !rem.ProvablyEmpty() {
			out.secs = append(out.secs, rem)
		}
	}
	return out
}

// IntersectMust returns an under-approximation of s ∩ o: the sections of s
// that are provably contained in some section of o, plus the sections of o
// provably contained in some section of s.
func (s *Set) IntersectMust(o *Set) *Set {
	out := &Set{}
	if s.Empty() || o.Empty() {
		return out
	}
	for _, x := range s.secs {
		for _, y := range o.secs {
			if y.Contains(x) {
				out.AddMust(x)
				break
			}
		}
	}
	for _, y := range o.secs {
		for _, x := range s.secs {
			if x.Contains(y) {
				out.AddMust(y)
				break
			}
		}
	}
	return out
}

// IntersectsWith conservatively tests whether s and o may overlap: it
// returns false only when every pair of sections is provably disjoint.
func (s *Set) IntersectsWith(o *Set) bool {
	if s.Empty() || o.Empty() {
		return false
	}
	for _, x := range s.secs {
		for _, y := range o.secs {
			if !x.Disjoint(y) {
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
