package engined

import wire "rstore/internal/xwire/wire"

func Serve(req wire.Request) []byte {
	switch req.Op {
	case wire.OpEcho:
		return req.Payload
	case wire.OpMute:
	}
	return nil
}
