package corpus

import (
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"sort"
	"testing"

	"repro/internal/secpert"
)

// deepPrint writes v to w following pointers, interfaces, slices and
// maps (keys sorted), so any write reachable from v changes the
// output. Functions print as their code pointer; a pointer seen before
// prints as a back-reference.
func deepPrint(w io.Writer, v reflect.Value, seen map[uintptr]bool) {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			fmt.Fprint(w, "nil")
			return
		}
		if seen[v.Pointer()] {
			fmt.Fprintf(w, "^%x", v.Pointer())
			return
		}
		seen[v.Pointer()] = true
		fmt.Fprint(w, "&")
		deepPrint(w, v.Elem(), seen)
	case reflect.Interface:
		if v.IsNil() {
			fmt.Fprint(w, "nil")
			return
		}
		fmt.Fprintf(w, "%s:", v.Elem().Type())
		deepPrint(w, v.Elem(), seen)
	case reflect.Struct:
		fmt.Fprint(w, "{")
		for i := 0; i < v.NumField(); i++ {
			fmt.Fprintf(w, "%s=", v.Type().Field(i).Name)
			deepPrint(w, v.Field(i), seen)
			fmt.Fprint(w, " ")
		}
		fmt.Fprint(w, "}")
	case reflect.Slice, reflect.Array:
		fmt.Fprint(w, "[")
		for i := 0; i < v.Len(); i++ {
			deepPrint(w, v.Index(i), seen)
			fmt.Fprint(w, " ")
		}
		fmt.Fprint(w, "]")
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return fmt.Sprint(keys[i]) < fmt.Sprint(keys[j]) })
		fmt.Fprint(w, "map[")
		for _, k := range keys {
			deepPrint(w, k, seen)
			fmt.Fprint(w, ":")
			deepPrint(w, v.MapIndex(k), seen)
			fmt.Fprint(w, " ")
		}
		fmt.Fprint(w, "]")
	case reflect.Func:
		fmt.Fprintf(w, "func@%x", v.Pointer())
	case reflect.String:
		fmt.Fprintf(w, "%q", v.String())
	case reflect.Bool:
		fmt.Fprint(w, v.Bool())
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		fmt.Fprint(w, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		fmt.Fprint(w, v.Uint())
	case reflect.Float32, reflect.Float64:
		fmt.Fprint(w, v.Float())
	default:
		fmt.Fprintf(w, "<%s>", v.Kind())
	}
}

// policyHash deep-hashes Secpert's process-shared templates and
// compiled rule patterns.
func policyHash() uint64 {
	templates, rules := secpert.SharedPolicy()
	h := fnv.New64a()
	deepPrint(h, reflect.ValueOf([]any{templates, rules}), map[uintptr]bool{})
	return h.Sum64()
}

// TestSharedPolicyImmutable is the guard for Secpert's shared policy:
// every Secpert's engine registers the same Appendix A templates and
// the same compiled rule patterns, so no run may write to them. It
// deep-hashes that data around a full batch sweep and a service
// sweep (8 workers) and requires every hash to be
// unchanged; under -race the service sweep also checks that
// concurrent jobs only ever read it.
func TestSharedPolicyImmutable(t *testing.T) {
	if testing.Short() {
		t.Skip("two full corpus sweeps")
	}
	templates, rules := secpert.SharedPolicy()
	if len(templates) != 2 || len(rules) == 0 {
		t.Fatalf("shared policy has %d templates and %d rules", len(templates), len(rules))
	}
	again, _ := secpert.SharedPolicy()
	for i := range templates {
		if templates[i] != again[i] {
			t.Fatal("Secpert's templates are rebuilt: they are no longer process-wide")
		}
	}
	sum := policyHash()

	for _, o := range RunAll(All(), 4) {
		if o.Err != nil {
			t.Fatalf("batch %s: %v", o.Scenario.Name, o.Err)
		}
	}
	if policyHash() != sum {
		t.Fatal("a batch sweep mutated Secpert's shared policy")
	}

	for _, o := range serviceSweep(t, All(), 1)[0] {
		if o.Err != nil {
			t.Fatalf("service %s: %v", o.Scenario.Name, o.Err)
		}
	}
	if policyHash() != sum {
		t.Fatal("a service sweep mutated Secpert's shared policy")
	}
}
