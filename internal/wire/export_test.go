package wire

// ConfigDigest exposes the handshake's configuration digest to the
// external test package, whose raw-stream tests hand-roll Hello frames.
var ConfigDigest = configDigest
