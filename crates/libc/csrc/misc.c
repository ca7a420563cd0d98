// Process control, environment, time (the clock and socket receive
// deadlines), and assertion helpers.

int exit(int code) {
    __sys(SYS_EXIT, code);
    return 0;
}

int abort() {
    __sys(SYS_ABORT);
    return 0;
}

// Abort with a message when `cond` is false; the targets' internal sanity
// checks use this, and its abort is one of the failure modes the test
// controller classifies.
int assert_true(int cond, int msg) {
    if (cond != 0) { return 0; }
    print("assertion failed: ");
    print(msg);
    print("\n");
    abort();
    return 0;
}

int setenv(int name, int value, int overwrite) {
    int r = __sys(SYS_SETENV, name, value);
    if (r >= 0) { return 0; }
    if (r == -EINVAL) { errno = EINVAL; return -1; }
    errno = ENOMEM;
    return -1;
}

// Reentrant getenv: copies the value into `buf` (capacity `cap`) and
// returns the value's length, or -1 with errno = ENOENT when unset.
int getenv_r(int name, int buf, int cap) {
    int r = __sys(SYS_GETENV, name, buf, cap);
    if (r >= 0) { return r; }
    if (r == -ENOENT) { errno = ENOENT; return -1; }
    errno = EINVAL;
    return -1;
}

// Virtual-time clock, in VM ticks.
int gettime() {
    return __sys(SYS_GETTIME);
}

// Non-negative pseudo-random number from the VM's seeded generator.
int rand() {
    return __sys(SYS_RANDOM);
}

// Arm socket s's receive deadline at virtual time `when`, in gettime
// ticks; 0 disarms it, making recvfrom non-blocking again (see net.c).
int set_recv_deadline(int s, int when) {
    int r = __sys(SYS_RCVDEADLINE, s, when);
    if (r >= 0) { return 0; }
    if (r == -EBADF) { errno = EBADF; return -1; }
    errno = EINVAL;
    return -1;
}
