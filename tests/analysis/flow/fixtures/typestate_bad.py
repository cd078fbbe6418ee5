"""One violation per typestate protocol spec — simflow test fixture.

Analyzed by path, never imported: each function is a minimal witness
for exactly one finding of the typestate checker.
"""


def leaks_on_exit(session, n):
    # flow-segment-leak: reaches the function exit still allocated.
    offset = session.alloc(n)
    return None


def leaks_on_error(session, data):
    # flow-segment-leak: write_segment may raise, skipping the free.
    offset = session.alloc(len(data))
    session.write_segment(offset, data)
    session.free(offset, len(data))


def drops_result(session):
    # flow-segment-leak: alloc result discarded, offset unrecoverable.
    session.alloc(32)


def frees_twice(session, n):
    # flow-use-after-free: double free.
    offset = session.alloc(n)
    session.free(offset, n)
    session.free(offset, n)


def writes_after_free(session, data):
    # flow-use-after-free: write to a freed buffer.
    offset = session.alloc(len(data))
    session.free(offset, len(data))
    session.write(offset, data)


def reads_after_repost(session):
    # flow-descriptor-reuse: payload read after repost_free.
    desc = session.recv_poll()
    session.repost_free(desc)
    return session.peek_payload(desc)


def uses_after_destroy(mux, owner):
    # flow-endpoint-use: operation on a destroyed endpoint.
    ep = mux.create_endpoint()
    mux.destroy_endpoint(ep)
    ep.recv_poll(owner)
