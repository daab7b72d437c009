// Package taint implements the data-source tracking substrate used by
// Harrier to label every register and memory byte with the set of
// resources the data originated from (paper §5.1, §7.3).
//
// A Source is a (type, name) pair such as (File, "/etc/passwd") or
// (Binary, "/bin/ls"). A Tag is an interned identifier for a canonical,
// sorted set of sources; tag unions are cached so that per-instruction
// propagation is a single map lookup in the common case.
package taint

import (
	"fmt"
	"strings"

	"repro/internal/freelist"
)

// SourceType classifies where a piece of data originated
// (paper §5.1 lists exactly these five resource types).
type SourceType uint8

const (
	// None is the zero SourceType; it never appears inside a Source.
	None SourceType = iota
	// UserInput marks data typed by the user: stdin reads, command-line
	// arguments, environment and auxiliary variables (paper §7.3.3).
	UserInput
	// File marks data read from a file in the filesystem.
	File
	// Socket marks data received from a network connection.
	Socket
	// Binary marks data loaded from an executable or shared object,
	// i.e. hardcoded values (paper §5.1).
	Binary
	// Hardware marks data produced by the hardware, e.g. CPUID output.
	Hardware
	// Unknown marks data whose provenance the prototype cannot
	// establish (paper §5.1 footnote 4).
	Unknown
)

var sourceTypeNames = [...]string{
	None:      "NONE",
	UserInput: "USER_INPUT",
	File:      "FILE",
	Socket:    "SOCKET",
	Binary:    "BINARY",
	Hardware:  "HARDWARE",
	Unknown:   "UNKNOWN",
}

// String returns the CLIPS-style name of the source type, e.g.
// "USER_INPUT" or "BINARY", matching the paper's fact notation.
func (t SourceType) String() string {
	if int(t) < len(sourceTypeNames) {
		return sourceTypeNames[t]
	}
	return fmt.Sprintf("SourceType(%d)", uint8(t))
}

// Source identifies one origin of data: its type and the name of the
// resource (file path, socket address, image name). UserInput and
// Hardware sources carry a descriptive name ("stdin", "argv", "cpuid").
type Source struct {
	Type SourceType
	Name string
}

// String renders the source as TYPE:"name".
func (s Source) String() string {
	return fmt.Sprintf("%s:%q", s.Type, s.Name)
}

// Less orders sources canonically: by type, then by name.
func (s Source) Less(o Source) bool {
	if s.Type != o.Type {
		return s.Type < o.Type
	}
	return s.Name < o.Name
}

// Tag names an interned set of sources. The zero Tag is the empty set
// (untainted data). Tags are only meaningful relative to the Store
// that created them, and only until that store is released: a
// released store is emptied and handed to a later NewStore, which
// gives the same numbers to other sets.
type Tag uint32

// Empty is the untainted tag: the empty source set.
const Empty Tag = 0

// unionCacheSize is the number of slots in the direct-mapped union
// cache fronting the unions map. Must be a power of two.
const unionCacheSize = 4096

// WideName is the placeholder resource name carried by summarized
// sources once a set exceeds the store's width budget. A wide source
// means "one or more resources of this type, names no longer tracked":
// the set stays sound at the type level (warnings that key on source
// type still fire) while its width is bounded by the number of source
// types instead of the number of distinct resources.
const WideName = "<wide>"

// unionEntry is one direct-mapped cache slot. The zero entry (a == b
// == 0) can never match a live probe: Union short-circuits when either
// operand is Empty, so cached pairs always have 0 < a < b.
type unionEntry struct{ a, b, out Tag }

// Store interns source sets and caches unions. A Store is not safe for
// concurrent use; the simulator is single-threaded per run, matching
// Harrier's synchronous event model (paper §6.1.1).
type Store struct {
	sets    [][]Source     // sets[tag] = canonical sorted source set
	index   map[string]Tag // canonical key -> tag
	unions  map[[2]Tag]Tag // cached unions (complete, backs the ucache)
	singles map[Source]Tag // fast path for single-source tags
	unionN  uint64         // statistics: union operations performed
	hitN    uint64         // statistics: union cache hits (fast + map)
	fastN   uint64         // statistics: direct-mapped cache hits

	widthBudget int    // max sources per set; 0 = unlimited
	wideN       uint64 // statistics: sets summarized to wide sources

	// ucache is a direct-mapped cache probed before the unions map:
	// one array read against three map-hash probes in the hot loop.
	ucache [unionCacheSize]unionEntry
}

// freeStores holds released stores, emptied by Release, at most 16:
// four times the default service's four workers. Each keeps its 48 KiB
// union cache and its emptied maps, whose size Release bounds. The
// list is shared by every Store in the process, so the store one
// settled service job releases is the next job's on any worker.
var freeStores = freelist.New[Store](16)

// NewStore returns an empty store whose tag 0 is the empty set: a
// released one when the free list has one, a new one otherwise.
func NewStore() *Store {
	if st := freeStores.Take(); st != nil {
		return st
	}
	return &Store{
		sets:    [][]Source{nil}, // tag 0 = empty set
		index:   map[string]Tag{"": Empty},
		unions:  make(map[[2]Tag]Tag),
		singles: make(map[Source]Tag),
	}
}

// Release empties st and hands it to a later NewStore. The caller must
// hold no other reference to st, and no shadow may still resolve tags
// against it: every tag st issued loses its meaning. Emptying costs
// O(sets and unions the store made), not a 48 KiB clear, because
// Union fills a cache slot only with a pair it also records in the
// unions map, so clearing the slots the map names clears them all. A
// store whose union map or set table outgrew the union cache is left
// to the GC instead, so one dense job's map capacity is not paid again
// by every later emptying.
func (st *Store) Release() {
	if len(st.unions) > unionCacheSize || len(st.sets) > unionCacheSize {
		return
	}
	for k := range st.unions {
		st.ucache[unionSlot(k[0], k[1])] = unionEntry{}
	}
	clear(st.unions)
	clear(st.singles)
	clear(st.index)
	st.index[""] = Empty
	clear(st.sets[1:])
	st.sets = st.sets[:1]
	st.unionN, st.hitN, st.fastN, st.wideN = 0, 0, 0, 0
	st.widthBudget = 0
	freeStores.Put(st)
}

// unionSlot is the union cache slot of the ordered pair a < b.
func unionSlot(a, b Tag) uint32 {
	return (uint32(a)*0x9E3779B1 ^ uint32(b)*0x85EBCA77) & (unionCacheSize - 1)
}

// Of returns the tag for a single source, interning it on first use.
func (st *Store) Of(s Source) Tag {
	if t, ok := st.singles[s]; ok {
		return t
	}
	t := st.intern([]Source{s})
	st.singles[s] = t
	return t
}

func key(set []Source) string {
	var b strings.Builder
	for _, s := range set {
		b.WriteByte(byte(s.Type))
		b.WriteString(s.Name)
		b.WriteByte(0)
	}
	return b.String()
}

// SetWidthBudget caps the number of sources a set may carry. A set
// that would exceed the budget degrades to one wide source per distinct
// source type (Name = WideName), trading per-resource precision for a
// hard bound on shadow-state width. The degradation over-approximates:
// type-level membership is preserved, so no warning that keys on a
// source type is ever lost. n <= 0 disables the budget. Tags interned
// before the budget was set are not rewritten.
func (st *Store) SetWidthBudget(n int) { st.widthBudget = n }

// WideUnions reports how many set-building operations were degraded to
// wide sources under the width budget.
func (st *Store) WideUnions() uint64 { return st.wideN }

// clampWidth enforces the width budget on a canonical sorted set,
// summarizing to one wide source per distinct type when the set is too
// wide. Summarization is idempotent: a wide set re-summarizes to
// itself, so repeated unions converge instead of growing.
func (st *Store) clampWidth(set []Source) []Source {
	if st.widthBudget <= 0 || len(set) <= st.widthBudget {
		return set
	}
	var out []Source
	for _, s := range set {
		if len(out) == 0 || out[len(out)-1].Type != s.Type {
			out = append(out, Source{Type: s.Type, Name: WideName})
		}
	}
	st.wideN++
	return out
}

// intern stores a canonical (sorted, deduplicated) set, degrading it
// first if it exceeds the width budget.
func (st *Store) intern(set []Source) Tag {
	set = st.clampWidth(set)
	k := key(set)
	if t, ok := st.index[k]; ok {
		return t
	}
	t := Tag(len(st.sets))
	st.sets = append(st.sets, set)
	st.index[k] = t
	return t
}

// Union returns the tag for the union of the two source sets.
// Union(x, Empty) == x for all x. Results are cached both ways.
func (st *Store) Union(a, b Tag) Tag {
	if a == b || b == Empty {
		return a
	}
	if a == Empty {
		return b
	}
	if a > b {
		a, b = b, a
	}
	st.unionN++
	slot := &st.ucache[unionSlot(a, b)]
	if slot.a == a && slot.b == b {
		st.hitN++
		st.fastN++
		return slot.out
	}
	if t, ok := st.unions[[2]Tag{a, b}]; ok {
		st.hitN++
		*slot = unionEntry{a, b, t}
		return t
	}
	sa, sb := st.sets[a], st.sets[b]
	merged := make([]Source, 0, len(sa)+len(sb))
	i, j := 0, 0
	for i < len(sa) && j < len(sb) {
		switch {
		case sa[i] == sb[j]:
			merged = append(merged, sa[i])
			i++
			j++
		case sa[i].Less(sb[j]):
			merged = append(merged, sa[i])
			i++
		default:
			merged = append(merged, sb[j])
			j++
		}
	}
	merged = append(merged, sa[i:]...)
	merged = append(merged, sb[j:]...)
	t := st.intern(merged)
	st.unions[[2]Tag{a, b}] = t
	*slot = unionEntry{a, b, t}
	return t
}

// Union4 returns the tag for the union of four source sets: the tag a
// 32-bit load observes on a byte-granular shadow page. It reuses the
// direct-mapped union cache through Union, but first collapses the
// shapes byte-mode pages overwhelmingly produce — four equal tags, or
// two uniform halves — so the common case pays equality compares
// instead of cache probes.
func (st *Store) Union4(a, b, c, d Tag) Tag {
	if a == b {
		if c == d {
			return st.Union(a, c)
		}
		return st.Union(a, st.Union(c, d))
	}
	return st.Union(st.Union(a, b), st.Union(c, d))
}

// Sources returns the canonical source set named by t. The returned
// slice must not be modified. An unknown tag yields nil.
func (st *Store) Sources(t Tag) []Source {
	if int(t) >= len(st.sets) {
		return nil
	}
	return st.sets[t]
}

// String renders the source set named by t, e.g.
// {FILE:"/etc/passwd", BINARY:"/bin/ls"}. Empty renders as {}.
func (st *Store) String(t Tag) string {
	set := st.Sources(t)
	if len(set) == 0 {
		return "{}"
	}
	parts := make([]string, len(set))
	for i, s := range set {
		parts[i] = s.String()
	}
	return "{" + strings.Join(parts, ", ") + "}"
}

// Stats reports interning statistics: distinct sets, union operations,
// and union cache hits (direct-mapped or map).
func (st *Store) Stats() (sets int, unions, hits uint64) {
	return len(st.sets), st.unionN, st.hitN
}

// FastHits reports how many union cache hits were served by the
// direct-mapped cache without touching the union map.
func (st *Store) FastHits() uint64 { return st.fastN }

// WidthHistogram returns the distribution of interned set widths:
// widths[w] = number of distinct live sets carrying exactly w sources.
// The empty set (tag 0) is excluded.
func (st *Store) WidthHistogram() map[int]uint64 {
	out := make(map[int]uint64)
	for t, set := range st.sets {
		if t == 0 {
			continue
		}
		out[len(set)]++
	}
	return out
}
