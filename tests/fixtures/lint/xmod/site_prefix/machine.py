"""Fixture: one shared machine firing per-tier sites through a prefix."""


class Machine:
    site_prefix: str

    def probe(self):
        return self.injector.fires(f"{self.site_prefix}.crash")


class Alpha(Machine):
    site_prefix = "alpha"


class Beta(Machine):
    site_prefix = "beta"


class Delta(Machine):
    site_prefix = "delta"
