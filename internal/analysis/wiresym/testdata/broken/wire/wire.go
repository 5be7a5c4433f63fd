package wire // want "docs/FORMATS.md documents OpBogus, which is not declared in the wire package"

const (
	OpEcho byte = iota + 1 // want "docs/FORMATS.md gives OpEcho value 9, but the constant is 1"
	OpGone                 // want "OpGone has no Client method" "OpGone has no dispatch arm" "OpGone \\(value 2\\) has no row in the docs/FORMATS.md op table"
	OpMute                 // want "OpMute has no Client method"
	OpDeaf                 // want "OpDeaf has no dispatch arm"
)

// Request is what a client method hands to the wire.
type Request struct {
	Op      byte
	Payload []byte
}
