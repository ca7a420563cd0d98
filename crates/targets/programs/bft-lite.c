// bft-lite: the PBFT analogue. Runs either as a replica ("replica <id>
// <idle-ticks>") or as the client ("client <requests> <timeout-ticks>") on
// the shared simulated network; the harness in lfi-targets wires 4 replicas
// and one client together.
//
// As in PBFT, timers are kept in time, not in polls: the replica's idle
// timeout and the client's retransmission timeout are receive deadlines
// in virtual-time ticks (set_recv_deadline), so an idle recvfrom blocks
// until a datagram arrives or the deadline passes. A failed receive before
// the deadline (an injected one, which returns at once) counts against a
// cap instead: 4000 per idle period for a replica, 300 per attempt for
// the client.
//
// Seeded with the two PBFT defects of Table 1:
//
//   * pbft-recvfrom    — the startup receive's error return is not checked
//     and the NULL message object is parsed;
//   * pbft-fopen-fwrite — write_checkpoint passes fopen's unchecked NULL
//     straight to fwrite.

int my_id = 0;

// Copy a received datagram into a fresh message object; returns NULL for
// bogus sizes, like the real codebase's message constructor.
int msg_dup(int buf, int n) {
    if (n <= 0) { return 0; }
    int m = malloc(n + 8);
    if (m == 0) { return 0; }
    memcpy(m, buf, n);
    __store8(m + n, 0);
    return m;
}

// Wait for the harness's startup hello (queued before the replica runs).
// BUG (pbft-recvfrom): the recvfrom error return is not checked, so a
// failed receive yields a NULL message object that is parsed anyway.
int await_startup(int s) {
    int buf[16];
    int src[2];
    int n = recvfrom(s, buf, 100, src);
    int m = msg_dup(buf, n);
    return __load8(m);
}

// Persist a checkpoint. BUG (pbft-fopen-fwrite): fopen's NULL return is
// not checked before fwrite dereferences the FILE object.
int write_checkpoint(int seq) {
    int name[8];
    strcpy(name, "/ckpt/r");
    int digits[4];
    itoa(my_id, digits);
    strcat(name, digits);
    int f = fopen(name, "w");
    fwrite("chk ", 1, 4, f);
    int seqtxt[4];
    itoa(seq, seqtxt);
    fwrite(seqtxt, 1, strlen(seqtxt), f);
    fclose(f);
    return 0;
}

// Serve requests until no datagram arrived for idle_ticks, or 4000
// receives failed since the last one.
int replica_main(int id, int idle_ticks) {
    my_id = id;
    int s = socket(0, 0, 0);
    if (s == -1) { return 1; }
    if (bind(s, 5000 + id) == -1) { return 1; }
    await_startup(s);
    int buf[64];
    int src[2];
    int idle = 0;
    int handled = 0;
    int idle_until = gettime() + idle_ticks;
    if (set_recv_deadline(s, idle_until) == -1) { return 1; }
    while (idle < 4000) {
        int n = recvfrom(s, buf, 400, src);
        if (n <= 0) {
            if (gettime() >= idle_until) { break; }
            idle = idle + 1;
            continue;
        }
        idle = 0;
        idle_until = gettime() + idle_ticks;
        if (set_recv_deadline(s, idle_until) == -1) { return 1; }
        __store8(buf + n, 0);
        int seq = atoi(buf);
        handled = handled + 1;
        if (handled % 4 == 0) {
            write_checkpoint(seq);
        }
        int out[8];
        int len = itoa(seq, out);
        sendto(s, out, len, 99, 6000);
    }
    return 0;
}

// Issue one request to every replica and wait for f+1 = 2 matching replies
// from distinct replicas, retransmitting when none came for timeout ticks
// or 300 receives failed.
int run_request(int s, int r, int timeout) {
    int out[4];
    int len = itoa(r, out);
    int buf[16];
    int src[2];
    int seen[8];
    int matching = 0;
    int attempts = 0;
    while (attempts < 50) {
        int i = 1;
        while (i <= 4) {
            sendto(s, out, len, i, 5000 + i);
            i = i + 1;
        }
        int retransmit_at = gettime() + timeout;
        if (set_recv_deadline(s, retransmit_at) == -1) { return 0; }
        int waited = 0;
        while (waited < 300) {
            int n = recvfrom(s, buf, 100, src);
            if (n <= 0) {
                if (gettime() >= retransmit_at) { break; }
                waited = waited + 1;
                continue;
            }
            __store8(buf + n, 0);
            if (atoi(buf) == r && src[0] >= 1 && src[0] <= 4) {
                if (seen[src[0]] == 0) {
                    seen[src[0]] = 1;
                    matching = matching + 1;
                    if (matching >= 2) { return 1; }
                }
            }
        }
        attempts = attempts + 1;
    }
    return 0;
}

int client_main(int requests, int timeout) {
    int s = socket(0, 0, 0);
    if (s == -1) { exit(0); }
    if (bind(s, 6000) == -1) { exit(0); }
    int completed = 0;
    int r = 0;
    while (r < requests) {
        completed = completed + run_request(s, r, timeout);
        r = r + 1;
    }
    print("completed ");
    print_num(completed);
    print(" requests\n");
    exit(completed);
    return 0;
}

int main(int argc) {
    int role[8];
    int a1[8];
    int a2[8];
    if (argc < 3) { return 1; }
    if (getenv_r("ARG0", role, 60) == -1) { return 1; }
    if (getenv_r("ARG1", a1, 60) == -1) { return 1; }
    if (getenv_r("ARG2", a2, 60) == -1) { return 1; }
    if (strcmp(role, "replica") == 0) {
        return replica_main(atoi(a1), atoi(a2));
    }
    if (strcmp(role, "client") == 0) {
        return client_main(atoi(a1), atoi(a2));
    }
    return 1;
}
