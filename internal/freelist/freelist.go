// Package freelist keeps released fixed-size objects, such as guest
// and shadow pages, for reuse instead of leaving them to the GC.
package freelist

// List is a bounded free list of *T. It is a buffered channel, so it
// is safe for concurrent use, and len and cap read how many objects it
// holds and may hold.
type List[T any] chan *T

// New returns an empty list that retains at most n objects.
func New[T any](n int) List[T] { return make(List[T], n) }

// Get returns a zeroed *T: a released one when the list has one, a new
// one otherwise.
func (l List[T]) Get() *T {
	if x := l.Take(); x != nil {
		var zero T
		*x = zero
		return x
	}
	return new(T)
}

// Take returns a released *T exactly as it was put, or nil when the
// list is empty. It suits objects that are emptied before Put more
// cheaply than Get's whole-object clear.
func (l List[T]) Take() *T {
	select {
	case x := <-l:
		return x
	default:
		return nil
	}
}

// Put releases x for reuse. A full list drops it, leaving it to the GC.
// The caller must hold no other reference to x.
func (l List[T]) Put(x *T) {
	select {
	case l <- x:
	default:
	}
}
