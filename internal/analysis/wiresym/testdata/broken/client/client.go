package remote

import wire "rstore/internal/xwire/wire"

type Client struct{}

func (c *Client) Echo(payload []byte) wire.Request {
	return wire.Request{Op: wire.OpEcho, Payload: payload}
}

func (c *Client) Deaf() wire.Request {
	return wire.Request{Op: wire.OpDeaf}
}

// mute is no Client method: an op only a free function sends cannot be sent
// through the client.
func mute() wire.Request {
	return wire.Request{Op: wire.OpMute}
}
