package image

import (
	"errors"
	"fmt"
)

// ErrBadImage is the sentinel every structural decode failure wraps: a
// recognized container whose contents are malformed (truncated ELF
// headers, out-of-range section bounds, an unsupported machine class)
// or bytes no registered frontend recognizes at all. Callers branch on
// it with errors.Is to turn a bad upload into a typed rejection
// instead of a crash; compile errors from the text frontend do NOT
// wrap it (a program that fails to assemble is a bad program, not a
// bad container).
var ErrBadImage = errors.New("image: malformed binary image")

// Format is one registered binary frontend: a detector over the raw
// bytes (magic sniffing) and a decoder producing the loadable Image.
// Frontends register at init time; the loader's format-agnostic Open
// entry point consults them in registration order.
type Format struct {
	// Name identifies the frontend ("elf", "asm").
	Name string
	// Detect reports whether the bytes look like this format. It must
	// be cheap (magic bytes, not a full parse) and must never panic.
	Detect func(data []byte) bool
	// Decode parses the bytes into an Image named name. Structural
	// failures wrap ErrBadImage; the text frontend returns its
	// compile diagnostics unwrapped.
	Decode func(name string, data []byte) (*Image, error)
}

// formats holds the registered frontends in registration order. The
// slice is append-only and written only from init functions, so reads
// need no locking.
var formats []Format

// RegisterFormat adds a binary frontend to the detection chain.
// Registration happens from init functions; later registrations are
// consulted after earlier ones.
func RegisterFormat(f Format) {
	if f.Name == "" || f.Detect == nil || f.Decode == nil {
		panic("image: RegisterFormat with incomplete format")
	}
	formats = append(formats, f)
}

// Decode auto-detects the format of data by magic sniffing and decodes
// it into an Image named name. Unrecognized bytes fail with an error
// wrapping ErrBadImage.
func Decode(name string, data []byte) (*Image, error) {
	for i := range formats {
		if formats[i].Detect(data) {
			return formats[i].Decode(name, data)
		}
	}
	return nil, fmt.Errorf("image %s: no registered format recognizes these bytes: %w",
		name, ErrBadImage)
}

// DecodeAs decodes data with the named frontend, bypassing detection;
// used where the caller already knows the format (InstallSource forces
// the text frontend so arbitrary text is never mis-sniffed).
func DecodeAs(format, name string, data []byte) (*Image, error) {
	for i := range formats {
		if formats[i].Name == format {
			return formats[i].Decode(name, data)
		}
	}
	return nil, fmt.Errorf("image %s: no registered format %q: %w", name, format, ErrBadImage)
}
