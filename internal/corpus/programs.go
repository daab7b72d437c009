package corpus

import (
	"sync"

	"repro/internal/asm"
	"repro/internal/image"
	"repro/internal/vos"
)

// vosScript aliases the remote-peer interface for brevity in
// scenario definitions.
type vosScript = vos.RemoteScript

// libs memoises mustLib: library name → func() *image.Image.
var libs sync.Map

// mustLib returns the guest shared object name assembled from src,
// assembling it once per process. Names and sources are compile-time
// constants, one source per name, so every System installs the same
// read-only image (see image.Image).
func mustLib(name, src string) *image.Image {
	f, _ := libs.LoadOrStore(name, sync.OnceValue(func() *image.Image {
		return asm.MustAssemble(name, src)
	}))
	return f.(func() *image.Image)()
}

// trivialExe is an installable do-nothing executable, standing in for
// the system binaries the corpus programs execve (/bin/ls, /bin/su,
// cc1plus, ...). The *detection* happens before the target runs, so
// its body is irrelevant.
const trivialExe = `
.text
_start:
    mov ebx, 0
    mov eax, 1          ; SYS_exit
    int 0x80
`

// installTools places the standard target binaries the exploits and
// trusted programs invoke.
func installTools(sys interface{ MustInstallSource(string, string) }, paths ...string) {
	for _, p := range paths {
		sys.MustInstallSource(p, trivialExe)
	}
}

// --- Scripted remote peers ---

// sinkScript accepts a connection and swallows everything.
type sinkScript struct{}

func (sinkScript) OnConnect(*vos.RemoteConn)      {}
func (sinkScript) OnData(*vos.RemoteConn, []byte) {}

// sendScript sends fixed bytes on connect, then swallows.
type sendScript struct{ payload string }

func (s sendScript) OnConnect(c *vos.RemoteConn)  { c.Send([]byte(s.payload)) }
func (sendScript) OnData(*vos.RemoteConn, []byte) {}

// attackerScript drives the pma session: it authenticates, issues
// shell commands as responses arrive, and closes when done.
type attackerScript struct {
	sends []string // successive payloads; the first goes on connect
	i     int
}

func (a *attackerScript) OnConnect(c *vos.RemoteConn) {
	a.step(c)
}

func (a *attackerScript) OnData(c *vos.RemoteConn, data []byte) {
	a.step(c)
}

func (a *attackerScript) step(c *vos.RemoteConn) {
	if a.i >= len(a.sends) {
		c.Close()
		return
	}
	payload := a.sends[a.i]
	a.i++
	c.Send([]byte(payload))
}
