package secpert

import (
	"slices"

	"repro/internal/events"
	"repro/internal/expert"
	"repro/internal/taint"
)

// Slot positions of system_call_access, in template order.
const (
	aCall = iota
	aName
	aType
	aOriginName
	aOriginType
	aTime
	aFreq
	aAddr
	aPID
	aCloneCount
	aCloneRate
	aMem
	accessSlotCount
)

// Slot positions of system_call_io, in template order.
const (
	ioCall = iota
	ioDir
	ioDataType
	ioDataName
	ioName
	ioType
	ioOriginName
	ioOriginType
	ioHead
	ioServer
	ioServerAddr
	ioServerOriginName
	ioServerOriginType
	ioTime
	ioFreq
	ioAddr
	ioPID
	ioSlotCount
)

// The fact shapes of paper Appendix A.1: system_call_access for
// resource accesses and system_call_io for data transfers. They are
// built once per process and shared read-only by every Secpert's
// engine; the policy rules are compiled against them once too.
var (
	accessTemplate = expert.NewTemplate("system_call_access",
		expert.SlotDef{Name: "system_call_name"},
		expert.SlotDef{Name: "resource_name"},
		expert.SlotDef{Name: "resource_type"},
		expert.SlotDef{Name: "resource_origin_name", Multi: true},
		expert.SlotDef{Name: "resource_origin_type", Multi: true},
		expert.SlotDef{Name: "time", Default: int64(0)},
		expert.SlotDef{Name: "frequency", Default: int64(0)},
		expert.SlotDef{Name: "address", Default: ""},
		expert.SlotDef{Name: "pid", Default: int64(0)},
		expert.SlotDef{Name: "clone_count", Default: int64(0)},
		expert.SlotDef{Name: "clone_rate", Default: int64(0)},
		expert.SlotDef{Name: "mem_bytes", Default: int64(0)},
	)
	ioTemplate = expert.NewTemplate("system_call_io",
		expert.SlotDef{Name: "system_call_name"},
		expert.SlotDef{Name: "direction"},
		expert.SlotDef{Name: "data_source_type", Multi: true},
		expert.SlotDef{Name: "data_source_name", Multi: true},
		expert.SlotDef{Name: "resource_name"},
		expert.SlotDef{Name: "resource_type"},
		expert.SlotDef{Name: "resource_origin_name", Multi: true},
		expert.SlotDef{Name: "resource_origin_type", Multi: true},
		expert.SlotDef{Name: "head", Default: ""},
		expert.SlotDef{Name: "server", Default: "no"},
		expert.SlotDef{Name: "server_addr", Default: ""},
		expert.SlotDef{Name: "server_origin_name", Multi: true},
		expert.SlotDef{Name: "server_origin_type", Multi: true},
		expert.SlotDef{Name: "time", Default: int64(0)},
		expert.SlotDef{Name: "frequency", Default: int64(0)},
		expert.SlotDef{Name: "address", Default: ""},
		expert.SlotDef{Name: "pid", Default: int64(0)},
	)
	templates = []*expert.Template{accessTemplate, ioTemplate}
)

// Constant slot values, boxed once so building a fact does not box
// them again.
var (
	typeValues = func() []expert.Value {
		out := make([]expert.Value, taint.Unknown+1)
		for t := range out {
			out[t] = taint.SourceType(t).String()
		}
		return out
	}()
	dirRead, dirWrite   expert.Value = events.Read.String(), events.Write.String()
	serverNo, serverYes expert.Value = "no", "yes"
)

// typeValue is the boxed name of a source type.
func typeValue(t taint.SourceType) expert.Value {
	if int(t) < len(typeValues) {
		return typeValues[t]
	}
	return t.String()
}

// boxCache hands out boxed values for the strings and source lists a
// run's events repeat (call names, resource names, code addresses,
// origin sets), so a repeat reuses the value boxed before instead of
// allocating again. It is a small ring per Secpert: a value not among
// the last 16 strings or 4 source lists is boxed anew. Over the corpus
// event logs about 40% of string lookups and two thirds of list lookups
// hit, and larger rings add almost nothing. Boxed values are shared by
// the facts that carry them and are never written.
type boxCache struct {
	keys  [16]string
	strs  [16]expert.Value
	nstr  int
	lists [4]boxedList
	nlist int
	// vals is the unused rest of a chunk of fact values.
	vals []expert.Value
}

// valueChunk is how many fact values one chunk allocation holds: three
// to five events' worth.
const valueChunk = 64

// values returns n fresh fact values cut from a chunk, so converting an
// event does not allocate its values on its own. Each fact adopts its
// slice, and slices never overlap.
func (c *boxCache) values(n int) []expert.Value {
	if len(c.vals) < n {
		c.vals = make([]expert.Value, valueChunk)
	}
	v := c.vals[:n:n]
	c.vals = c.vals[n:]
	return v
}

type boxedList struct {
	srcs         []taint.Source
	types, names expert.Value
}

// str returns s boxed.
func (c *boxCache) str(s string) expert.Value {
	if s == "" {
		return ""
	}
	for i := range c.keys {
		if c.keys[i] == s && c.strs[i] != nil {
			return c.strs[i]
		}
	}
	var v expert.Value = s
	i := c.nstr % len(c.strs)
	c.keys[i], c.strs[i] = s, v
	c.nstr++
	return v
}

// bytes returns b boxed as a string.
func (c *boxCache) bytes(b []byte) expert.Value {
	if len(b) == 0 {
		return ""
	}
	for i := range c.keys {
		if c.keys[i] == string(b) && c.strs[i] != nil {
			return c.strs[i]
		}
	}
	return c.str(string(b))
}

// sources returns the parallel (types, names) multifields of srcs.
// Event source lists are immutable once sent, so a cached conversion
// keeps a reference to the list it came from.
func (c *boxCache) sources(srcs []taint.Source) (types, names expert.Value) {
	if len(srcs) == 0 {
		return []expert.Value(nil), []expert.Value(nil)
	}
	for i := range c.lists {
		if e := &c.lists[i]; e.types != nil && slices.Equal(e.srcs, srcs) {
			return e.types, e.names
		}
	}
	n := len(srcs)
	both := make([]expert.Value, 2*n) // one allocation for both lists
	t, nm := both[:n:n], both[n:]
	for i, src := range srcs {
		t[i] = typeValue(src.Type)
		nm[i] = c.str(src.Name)
	}
	c.lists[c.nlist%len(c.lists)] = boxedList{srcs: srcs, types: t, names: nm}
	c.nlist++
	return t, nm
}

// accessValues converts an Access event into fact values in slot order.
func (c *boxCache) accessValues(ev *events.Access) []expert.Value {
	v := c.values(accessSlotCount)
	v[aCall] = c.str(ev.Call)
	v[aName] = c.str(ev.Resource.Name)
	v[aType] = typeValue(ev.Resource.Type)
	v[aOriginType], v[aOriginName] = c.sources(ev.Resource.Origin)
	v[aTime] = int64(ev.Time)
	v[aFreq] = ev.Freq
	v[aAddr] = c.str(ev.Addr)
	v[aPID] = int64(ev.PID)
	v[aCloneCount] = ev.CloneCount
	v[aCloneRate] = ev.CloneRate
	v[aMem] = ev.MemBytes
	return v
}

// ioValues converts an IO event into fact values in slot order.
func (c *boxCache) ioValues(ev *events.IO) []expert.Value {
	v := c.values(ioSlotCount)
	v[ioCall] = c.str(ev.Call)
	v[ioDir] = dirWrite
	if ev.Dir == events.Read {
		v[ioDir] = dirRead
	}
	v[ioDataType], v[ioDataName] = c.sources(ev.Data)
	v[ioName] = c.str(ev.Resource.Name)
	v[ioType] = typeValue(ev.Resource.Type)
	v[ioOriginType], v[ioOriginName] = c.sources(ev.Resource.Origin)
	v[ioHead] = c.bytes(ev.Head)
	v[ioServer] = serverNo
	if ev.Server {
		v[ioServer] = serverYes
	}
	v[ioServerAddr] = c.str(ev.ServerAddr)
	v[ioServerOriginType], v[ioServerOriginName] = c.sources(ev.ServerOrigin)
	v[ioTime] = int64(ev.Time)
	v[ioFreq] = ev.Freq
	v[ioAddr] = c.str(ev.Addr)
	v[ioPID] = int64(ev.PID)
	return v
}
