package freelist

import "testing"

// TestListBoundedAndZeroed: a full list drops what is put on it, Get
// hands back a released object zeroed, and an empty list allocates.
func TestListBoundedAndZeroed(t *testing.T) {
	l := New[[4]int](1)
	a, b := &[4]int{1, 2, 3, 4}, &[4]int{5}
	l.Put(a)
	l.Put(b)
	if len(l) != 1 {
		t.Fatalf("list holds %d, want its capacity 1", len(l))
	}
	if got := l.Get(); got != a || *got != [4]int{} {
		t.Fatalf("Get = %p %v, want %p zeroed", got, *got, a)
	}
	if got := l.Get(); got == a || got == b || *got != [4]int{} {
		t.Fatalf("Get on an empty list = %p %v, want a new zeroed object", got, *got)
	}
}

// TestListTakeLeavesContents: Take hands back a released object as it
// was put, without Get's clear, and reads nil on an empty list.
func TestListTakeLeavesContents(t *testing.T) {
	l := New[[4]int](1)
	if got := l.Take(); got != nil {
		t.Fatalf("Take on an empty list = %p, want nil", got)
	}
	a := &[4]int{1, 2, 3, 4}
	l.Put(a)
	if got := l.Take(); got != a || *got != [4]int{1, 2, 3, 4} {
		t.Fatalf("Take = %p %v, want %p unchanged", got, *got, a)
	}
	if got := l.Take(); got != nil {
		t.Fatalf("Take after the list emptied = %p, want nil", got)
	}
}
